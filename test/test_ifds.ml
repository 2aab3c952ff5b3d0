(* Unit tests for the generic IFDS solver (Fd_ifds.Ifds) on a small
   hand-built supergraph, independent of the taint domain.

   The test problem is "possibly-uninitialised variables": facts are
   variable names, gen/kill at assignment nodes, parameter passing at
   calls — a classic IFDS instance with known expected results. *)

(* --- a tiny program representation --------------------------------

   procedures are arrays of instructions; facts are variable names.

   main:  0: def a          callee:  0: def t (from param p)
          1: call callee(b)          1: ret t
          2: use r (= retval)
          3: exit

   Variables: "a" defined; "b" never defined -> uninitialised; the
   callee copies its parameter, so the return value is uninitialised
   exactly when the argument is. *)

type instr =
  | Def of string
  | CopyFrom of string * string  (** CopyFrom (dst, src) *)
  | Call of { callee : string; arg : string; ret : string }
  | Exit

type proc = { pname : string; code : instr array; params : string list }

let procs : (string, proc) Hashtbl.t = Hashtbl.create 7
let add_proc p = Hashtbl.replace procs p.pname p
let proc name = Hashtbl.find procs name

module P = struct
  type nonrec proc = string
  type node = string * int
  type fact = string (* "" = zero; otherwise: variable may be uninitialised *)

  let proc_equal = String.equal
  let proc_hash = Hashtbl.hash
  let node_equal (a : node) (b : node) = a = b
  let node_hash = Hashtbl.hash
  let fact_equal = String.equal
  let fact_hash = Hashtbl.hash
  let zero = ""
  let proc_of (p, _) = p
  let start_of p = (p, 0)

  let succs (p, i) =
    let pr = proc p in
    if i + 1 < Array.length pr.code then [ (p, i + 1) ] else []

  let is_exit (p, i) = (proc p).code.(i) = Exit

  let callees (p, i) =
    match (proc p).code.(i) with Call { callee; _ } -> [ callee ] | _ -> []

  (* at procedure start, every local is possibly-uninitialised: model
     by generating facts from zero at node 0 *)
  let locals_of p =
    Array.to_list (proc p).code
    |> List.concat_map (function
         | Def v -> [ v ]
         | CopyFrom (d, s) -> [ d; s ]
         | Call { arg; ret; _ } -> [ arg; ret ]
         | Exit -> [])
    |> List.sort_uniq compare

  let normal_flow (p, i) d =
    match (proc p).code.(i) with
    | Def v ->
        if d = zero && i = 0 then
          (* entry: all locals (except those that are parameters bound
             by the caller) start uninitialised *)
          zero
          :: List.filter (fun l -> not (List.mem l (proc p).params)) (locals_of p)
          |> List.filter (fun f -> f <> v)
        else if d = v then [] (* defined: kill *)
        else [ d ]
    | CopyFrom (dst, src) ->
        if d = zero && i = 0 then
          zero
          :: List.filter (fun l -> not (List.mem l (proc p).params)) (locals_of p)
          |> List.filter (fun f -> f <> dst || f = src)
        else if d = dst then [] (* overwritten *)
        else if d = src then [ d; dst ] (* copied uninitialised-ness *)
        else [ d ]
    | Call _ | Exit -> if d = zero && i = 0 then [ zero ] else [ d ]

  let call_flow (p, i) callee d =
    match (proc p).code.(i) with
    | Call { arg; _ } ->
        let formals = (proc callee).params in
        if d = zero then [ zero ]
        else if d = arg then List.map (fun f -> f) formals
        else []
    | _ -> []

  let return_flow ~call ~callee ~exit:_ ~return_site:_ d =
    match (proc (fst call)).code.(snd call) with
    | Call { ret; _ } ->
        ignore callee;
        (* the callee returns its local "t": map the uninitialised-ness
           of t to the caller's ret variable *)
        if d = "t" then [ ret ] else []
    | _ -> []

  let call_to_return_flow (p, i) d =
    match (proc p).code.(i) with
    | Call { ret; _ } ->
        if d = zero then [ zero ] else if d = ret then [] else [ d ]
    | _ -> [ d ]
end

module S = Fd_ifds.Ifds.Make (P)

let setup () =
  Hashtbl.reset procs;
  add_proc
    {
      pname = "main";
      params = [];
      code =
        [|
          Def "a";
          Call { callee = "callee"; arg = "b"; ret = "r" };
          Def "z";
          Exit;
        |];
    };
  add_proc
    {
      pname = "callee";
      params = [ "p" ];
      code = [| CopyFrom ("t", "p"); Exit |];
    }

let solve () = S.solve ~seeds:[ (("main", 0), P.zero) ] ()

let test_uninit_basics () =
  setup ();
  let t = solve () in
  let at n = List.sort compare (S.results_at t n) in
  (* before node 1: a was defined at 0, b/r/z still uninitialised *)
  let facts1 = at ("main", 1) in
  Alcotest.(check bool) "a initialised" true (not (List.mem "a" facts1));
  Alcotest.(check bool) "b uninitialised" true (List.mem "b" facts1);
  (* before node 2 (after the call): r inherits b's uninitialised-ness
     through the callee *)
  let facts2 = at ("main", 2) in
  Alcotest.(check bool) "r uninitialised via callee" true (List.mem "r" facts2);
  (* before node 3: z was defined at 2 *)
  let facts3 = at ("main", 3) in
  Alcotest.(check bool) "z defined" true (not (List.mem "z" facts3));
  Alcotest.(check bool) "r still uninitialised" true (List.mem "r" facts3)

let test_context_separation () =
  (* two calls: one with a defined argument, one without; only the
     undefined one makes the return value uninitialised *)
  Hashtbl.reset procs;
  add_proc
    {
      pname = "main";
      params = [];
      code =
        [|
          Def "a";
          Call { callee = "callee"; arg = "a"; ret = "r1" };
          Call { callee = "callee"; arg = "b"; ret = "r2" };
          Exit;
        |];
    };
  add_proc
    {
      pname = "callee";
      params = [ "p" ];
      code = [| CopyFrom ("t", "p"); Exit |];
    };
  let t = solve () in
  let facts = List.sort compare (S.results_at t ("main", 3)) in
  Alcotest.(check bool) "r1 initialised (defined arg)" true
    (not (List.mem "r1" facts));
  Alcotest.(check bool) "r2 uninitialised (undefined arg)" true
    (List.mem "r2" facts)

let test_summary_reuse () =
  (* many calls to the same callee: summaries mean the edge count grows
     far slower than quadratically *)
  Hashtbl.reset procs;
  let calls = 30 in
  add_proc
    {
      pname = "main";
      params = [];
      code =
        Array.init (calls + 2) (fun i ->
            (* the entry instruction generates the initial
               uninitialised-locals facts *)
            if i = 0 then Def "a0"
            else if i <= calls then
              Call
                { callee = "callee"; arg = "b"; ret = Printf.sprintf "r%d" (i - 1) }
            else Exit);
    };
  add_proc
    {
      pname = "callee";
      params = [ "p" ];
      code = [| CopyFrom ("t", "p"); Exit |];
    };
  let t = solve () in
  let facts = S.results_at t ("main", calls + 1) in
  Alcotest.(check bool) "all returns uninitialised" true
    (List.for_all
       (fun i -> List.mem (Printf.sprintf "r%d" i) facts)
       (List.init calls Fun.id));
  Alcotest.(check bool) "edge count bounded" true (S.edge_count t < 5000)

let test_zero_reaches_everywhere () =
  setup ();
  let t = solve () in
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "zero at %s/%d" (fst n) (snd n))
        true
        (List.mem P.zero (S.results_at t n)))
    [ ("main", 0); ("main", 1); ("main", 2); ("main", 3); ("callee", 0);
      ("callee", 1) ]

let test_unreached_proc () =
  setup ();
  add_proc { pname = "dead"; params = []; code = [| Def "x"; Exit |] };
  let t = solve () in
  Alcotest.(check (list string)) "no facts in unreached code" []
    (S.results_at t ("dead", 0))

(* a crash inside the solve reaches the barrier with the solve's
   post-mortem; a fault at the first tick finds the seed *)
let test_crash_post_mortem () =
  setup ();
  let chaos = Fd_resilience.Chaos.create ~seed:1 ~rate:1.0 in
  let budget = Fd_resilience.Budget.create ~chaos () in
  match
    Fd_resilience.Barrier.protect ~label:"ifds" (fun () ->
        S.solve ~budget ~seeds:[ (("main", 0), P.zero) ] ())
  with
  | Error (Fd_resilience.Outcome.Crashed msg) ->
      Alcotest.(check string) "post-mortem"
        "ifds: injected fault at solver.step [flight: ifds.seed #0]" msg
  | _ -> Alcotest.fail "expected a crash"

let () =
  Alcotest.run "fd_ifds"
    [
      ( "tabulation",
        [
          Alcotest.test_case "uninitialised-variable basics" `Quick
            test_uninit_basics;
          Alcotest.test_case "context separation" `Quick test_context_separation;
          Alcotest.test_case "summary reuse" `Quick test_summary_reuse;
          Alcotest.test_case "zero fact reachability" `Quick
            test_zero_reaches_everywhere;
          Alcotest.test_case "unreached procedures" `Quick test_unreached_proc;
          Alcotest.test_case "crash post-mortem" `Quick test_crash_post_mortem;
        ] );
    ]
