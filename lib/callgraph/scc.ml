(* An open method of the walk: its Tarjan index and lowlink, its own
   contribution, and the successors not yet followed.  A walked method
   absent from [memo] is still on the Tarjan stack: its component is
   written to [memo] the moment it is popped. *)
type 'b frame = {
  f_key : Mkey.t;
  f_own : 'b;
  f_succs : Mkey.t list;
  mutable f_rest : Mkey.t list;
  f_index : int;
  mutable f_low : int;
}

let condense memo ~visit ~finish root =
  let walked = Mkey.Tbl.create 16 in
  let stack = ref [] and next = ref 0 in
  let enter m =
    let own, succs = visit m in
    let f =
      { f_key = m; f_own = own; f_succs = succs; f_rest = succs;
        f_index = !next; f_low = !next }
    in
    incr next;
    Mkey.Tbl.replace walked m f;
    stack := f :: !stack;
    f
  in
  (* [work] is the depth-first path, innermost frame first *)
  let rec walk = function
    | [] -> ()
    | f :: parents as work -> (
        match f.f_rest with
        | w :: ws ->
            f.f_rest <- ws;
            if Mkey.Tbl.mem memo w then walk work
            else begin
              match Mkey.Tbl.find_opt walked w with
              | Some g ->
                  if g.f_index < f.f_low then f.f_low <- g.f_index;
                  walk work
              | None -> walk (enter w :: work)
            end
        | [] ->
            (match parents with
            | p :: _ when f.f_low < p.f_low -> p.f_low <- f.f_low
            | _ -> ());
            if f.f_low = f.f_index then begin
              let rec pop acc =
                match !stack with
                | [] -> acc
                | g :: rest ->
                    stack := rest;
                    let acc = (g.f_key, g.f_own, g.f_succs) :: acc in
                    if g == f then acc else pop acc
              in
              let members = pop [] in
              let v = finish members in
              List.iter (fun (m, _, _) -> Mkey.Tbl.replace memo m v) members
            end;
            walk parents)
  in
  (match Mkey.Tbl.find_opt memo root with
  | Some _ -> ()
  | None -> walk [ enter root ]);
  Mkey.Tbl.find memo root
