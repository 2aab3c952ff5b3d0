(** The persistent summary store as a solver extension (see the
    interface). *)

open Fd_callgraph
module Int_tbl = Hashtbl.Make (Int)

type state = {
  hooks : Summary.hooks;
  reports : Summary.sink_report list ref Int_tbl.t;
      (** context id -> the sink reports raised under it *)
  injected : unit Int_tbl.t;  (** contexts whose summaries came from the store *)
}

let cell tbl id =
  match Int_tbl.find_opt tbl id with
  | Some c -> c
  | None ->
      let c = ref [] in
      Int_tbl.replace tbl id c;
      c

(* a context already served: nothing more to install or replay, but
   its descent stays skipped *)
let served = { Summary.inj_summaries = []; inj_reports = [] }

let lookup s ~ctx ~callee ~entry =
  if Int_tbl.mem s.injected ctx then Some served
  else if not (Summary.eligible_entry entry) then None
  else
    match s.hooks.Summary.h_lookup ~callee ~entry with
    | None -> None
    | hit ->
        Int_tbl.replace s.injected ctx ();
        hit

let record s ~ctx r =
  let c = cell s.reports ctx in
  let rkey = Summary.report_key r in
  if not (List.exists (fun x -> String.equal (Summary.report_key x) rkey) !c)
  then c := r :: !c

(* Write-behind persistence after a complete solve: every eligible,
   freshly solved context's end summaries plus the sink reports
   recorded anywhere in its context subtree (the calls it descended
   into, transitively).  Partial solves persist nothing: a truncated
   summary would replay as the wrong answer. *)
let persist s (v : Solver_ext.view) =
  (* invert the incoming-call relation into context children *)
  let children = Int_tbl.create 256 in
  v.iter_contexts (fun callee _ _ ->
      List.iter
        (fun caller ->
          let c = cell children caller in
          c := callee :: !c)
        (v.callers callee));
  let reports_in_subtree cx =
    let seen_cx = Int_tbl.create 16 in
    let seen_r = Hashtbl.create 8 in
    let acc = ref [] in
    let rec go c =
      if not (Int_tbl.mem seen_cx c) then begin
        Int_tbl.replace seen_cx c ();
        (match Int_tbl.find_opt s.reports c with
        | Some rs ->
            List.iter
              (fun r ->
                let key = Summary.report_key r in
                if not (Hashtbl.mem seen_r key) then begin
                  Hashtbl.replace seen_r key ();
                  acc := r :: !acc
                end)
              (List.rev !rs)
        | None -> ());
        match Int_tbl.find_opt children c with
        | Some cs -> List.iter go !cs
        | None -> ()
      end
    in
    go cx;
    List.rev !acc
  in
  let per_method = Mkey.Tbl.create 64 in
  v.iter_contexts (fun cx mk entry ->
      if
        (not (Int_tbl.mem s.injected cx))
        && Summary.eligible_entry entry
        && s.hooks.Summary.h_eligible mk
      then begin
        let pc =
          {
            Summary.pc_entry = entry;
            pc_summaries = v.exits cx;
            pc_reports = reports_in_subtree cx;
          }
        in
        let c =
          match Mkey.Tbl.find_opt per_method mk with
          | Some c -> c
          | None ->
              let c = ref [] in
              Mkey.Tbl.replace per_method mk c;
              c
        in
        c := pc :: !c
      end);
  Mkey.Tbl.iter
    (fun mk c -> s.hooks.Summary.h_persist ~callee:mk !c)
    per_method

let make hooks (v : Solver_ext.view) =
  let s =
    { hooks; reports = Int_tbl.create 64; injected = Int_tbl.create 64 }
  in
  {
    Solver_ext.none with
    report =
      (fun ~ctx ~fresh:_ ~source ~sink ~tag ~cat ->
        record s ~ctx
          { Summary.sr_source = source; sr_sink = sink; sr_tag = tag;
            sr_cat = cat };
        []);
    lookup = lookup s;
    finish = (fun ~complete -> if complete then persist s v);
  }
