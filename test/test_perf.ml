(* Tests for the performance layer (PR 3):

   - the interning pools: equal values get equal ids (and nothing
     else does), ids round-trip through [value], the one-slot cache
     keeps counters honest;
   - the flat solver structures: [Pair_set] agrees with a [Hashtbl]
     model across many growths, ids near 2^31 - 1 included, through
     [add]/[mem] and through the single-probe slot API alike, and
     [Int_fifo] keeps push order across growth and compaction;
   - the explicit hash functions: consistent with [equal], and — the
     regression the fold-based hashes exist for — sensitive to
     differences arbitrarily deep in an access path, where the
     polymorphic hash's depth cutoff made deep paths collide;
   - the domain pool: [Pool.map] preserves order and determinism at
     any job count;
   - the app-level parallelism contract: the DroidBench and
     SecuriBench tables render bit-identically at --jobs 1 and
     --jobs 4. *)

open Fd_ir
module AP = Fd_core.Access_path
module Intern = Fd_util.Intern
module Pool = Fd_util.Pool

let loc name = Stmt.mk_local name
let fld name = Types.mk_field "t.C" name
let ap base fields = { AP.base = AP.Bloc (loc base); AP.fields }

(* ---------------- generators ---------------- *)

let gen_ap =
  QCheck.Gen.(
    let* base = oneofl [ "x"; "y"; "z" ] in
    let* fields = list_size (int_bound 12) (oneofl [ "f"; "g"; "h" ]) in
    return (ap base (List.map fld fields)))

let arb_ap = QCheck.make ~print:AP.to_string gen_ap
let arb_ap_pair = QCheck.pair arb_ap arb_ap

(* ---------------- interning ---------------- *)

module Ap_pool = Intern.Make (struct
  type t = AP.t

  let equal = AP.equal
  let hash = AP.hash
end)

let prop_intern_id_iff_equal =
  QCheck.Test.make ~name:"intern: same id <=> structurally equal" ~count:500
    arb_ap_pair (fun (a, b) ->
      let p = Ap_pool.create () in
      Bool.equal (Ap_pool.id p a = Ap_pool.id p b) (AP.equal a b))

let prop_intern_value_roundtrip =
  QCheck.Test.make ~name:"intern: value (id v) is equal to v" ~count:500
    arb_ap (fun a ->
      let p = Ap_pool.create () in
      AP.equal a (Ap_pool.value p (Ap_pool.id p a)))

(* regression: [grow] fills the spare capacity with the inserted
   value, so before the bound check [value p i] for an unallocated id
   returned an unrelated valid-looking value instead of failing *)
let test_intern_value_bounds () =
  let p = Ap_pool.create () in
  let a = ap "x" [ fld "f" ] in
  ignore (Ap_pool.id p a);
  Alcotest.(check bool) "allocated id round-trips" true
    (AP.equal a (Ap_pool.value p 0));
  let expect_invalid i =
    match Ap_pool.value p i with
    | _ -> Alcotest.failf "value %d on a 1-element pool must raise" i
    | exception Invalid_argument _ -> ()
  in
  expect_invalid 1;
  (* inside the physical array's spare capacity — the garbage zone *)
  expect_invalid 17;
  expect_invalid (-1)

let test_intern_counters () =
  let p = Ap_pool.create () in
  let a = ap "x" [ fld "f" ] and a' = ap "x" [ fld "f" ] in
  let b = ap "y" [] in
  let ia = Ap_pool.id p a in
  Alcotest.(check int) "dense from 0" 0 ia;
  Alcotest.(check int) "structural re-intern" ia (Ap_pool.id p a');
  Alcotest.(check bool) "distinct value, distinct id" true
    (Ap_pool.id p b <> ia);
  Alcotest.(check int) "two distinct values" 2 (Ap_pool.size p);
  Alcotest.(check (option int)) "find_id never interns" None
    (Ap_pool.find_id p (ap "z" []));
  Alcotest.(check int) "find_id did not grow the pool" 2 (Ap_pool.size p)

(* ---------------- flat solver structures ---------------- *)

let near_bound = Intern.id_bound - 1

(* components shaped like the solver's keys: small dense ids (many
   collisions), ids near 2^31 - 1, and two ids packed as
   [hi lsl 31 lor lo] *)
let gen_id =
  QCheck.Gen.(
    frequency
      [ (3, int_bound 40); (1, map (fun d -> near_bound - d) (int_bound 40)) ])

let gen_component =
  QCheck.Gen.(
    frequency
      [
        (2, gen_id); (1, map2 (fun hi lo -> (hi lsl 31) lor lo) gen_id gen_id);
      ])

let prop_pair_set_model =
  QCheck.Test.make ~name:"Pair_set: add/mem agree with a Hashtbl model"
    ~count:200
    QCheck.(
      make
        ~print:Print.(list (triple bool int int))
        Gen.(
          list_size (int_range 0 3000)
            (triple (frequencyl [ (3, true); (1, false) ]) gen_component
               gen_component)))
    (fun ops ->
      let s = Intern.Pair_set.create () and model = Hashtbl.create 16 in
      List.for_all
        (fun (is_add, a, b) ->
          let expected = Hashtbl.mem model (a, b) in
          if is_add then begin
            Hashtbl.replace model (a, b) ();
            Bool.equal (Intern.Pair_set.add s a b) (not expected)
          end
          else Bool.equal (Intern.Pair_set.mem s a b) expected)
        ops
      && Intern.Pair_set.length s = Hashtbl.length model
      && Hashtbl.fold (fun (a, b) () ok -> ok && Intern.Pair_set.mem s a b)
           model true)

(* the single-probe path [propagate] uses (slot, occupied, insert_at)
   interleaved with [add] and [mem]; starting at one to eight slots,
   the inserts at a slot grow the set many times *)
type pair_op = Add | Mem | Probe_insert | Probe

let prop_pair_set_slots =
  QCheck.Test.make
    ~name:"Pair_set: slot/occupied/insert_at agree with a Hashtbl model"
    ~count:200
    QCheck.(
      make
        ~print:
          Print.(
            pair int
              (list
                 (triple
                    (function
                      | Add -> "add"
                      | Mem -> "mem"
                      | Probe_insert -> "probe+insert"
                      | Probe -> "probe")
                    int int)))
        Gen.(
          pair (int_range 1 8)
            (list_size (int_range 0 3000)
               (triple
                  (frequencyl [ (2, Add); (1, Mem); (3, Probe_insert); (1, Probe) ])
                  gen_component gen_component))))
    (fun (capacity, ops) ->
      let s = Intern.Pair_set.create ~capacity () and model = Hashtbl.create 16 in
      List.for_all
        (fun (op, a, b) ->
          let expected = Hashtbl.mem model (a, b) in
          match op with
          | Add ->
              Hashtbl.replace model (a, b) ();
              Bool.equal (Intern.Pair_set.add s a b) (not expected)
          | Mem -> Bool.equal (Intern.Pair_set.mem s a b) expected
          | Probe ->
              Bool.equal
                (Intern.Pair_set.occupied s (Intern.Pair_set.slot s a b))
                expected
          | Probe_insert ->
              let i = Intern.Pair_set.slot s a b in
              Bool.equal (Intern.Pair_set.occupied s i) expected
              && begin
                   if not expected then begin
                     Intern.Pair_set.insert_at s i a b;
                     Hashtbl.replace model (a, b) ()
                   end;
                   Intern.Pair_set.mem s a b
                 end)
        ops
      && Intern.Pair_set.length s = Hashtbl.length model
      && Hashtbl.fold (fun (a, b) () ok -> ok && Intern.Pair_set.mem s a b)
           model true)

let test_pair_set_bounds () =
  let s = Intern.Pair_set.create ~capacity:1 () in
  let hi = (near_bound lsl 31) lor near_bound in
  Alcotest.(check bool) "packed max-id pair is new" true
    (Intern.Pair_set.add s near_bound hi);
  Alcotest.(check bool) "and then present" false
    (Intern.Pair_set.add s near_bound hi);
  Alcotest.(check bool) "neighbour absent" false
    (Intern.Pair_set.mem s near_bound (hi - 1));
  (match Intern.Pair_set.add s (-1) 0 with
  | _ -> Alcotest.fail "a negative first component must be rejected"
  | exception Invalid_argument _ -> ());
  List.iter
    (fun a ->
      match Intern.Pair_set.insert_at s (Intern.Pair_set.slot s a 0) a 0 with
      | () -> Alcotest.failf "insert_at must reject first component %d" a
      | exception Invalid_argument _ -> ())
    [ -1; -7; min_int ];
  (match
     Intern.Pair_set.insert_at s
       (Intern.Pair_set.slot s near_bound hi)
       near_bound hi
   with
  | () -> Alcotest.fail "insert_at must reject an occupied slot"
  | exception Invalid_argument _ -> ());
  for i = 0 to 999 do
    ignore (Intern.Pair_set.add s i (near_bound - i))
  done;
  Alcotest.(check int) "1001 pairs after growing from one slot" 1001
    (Intern.Pair_set.length s);
  Alcotest.(check bool) "words cover two ints per pair" true
    (Intern.Pair_set.words s > 2 * 1001)

let prop_int_fifo_model =
  QCheck.Test.make
    ~name:"Int_fifo: interleaved pushes and pops keep Queue order" ~count:300
    QCheck.(
      make
        ~print:Print.(pair int (list (option int)))
        Gen.(
          pair (int_range 1 8)
            (list_size (int_range 0 2000)
               (frequency
                  [ (3, map Option.some gen_component); (2, return None) ]))))
    (fun (capacity, ops) ->
      (* [None] pops, [Some x] pushes x; a small start capacity makes
         the queue both grow and slide its live items down *)
      let q = Intern.Int_fifo.create ~capacity () and model = Queue.create () in
      List.for_all
        (function
          | Some x ->
              Intern.Int_fifo.push q x;
              Queue.push x model;
              true
          | None -> (
              match Queue.take_opt model with
              | None -> Intern.Int_fifo.is_empty q
              | Some x -> Intern.Int_fifo.pop q = x))
        ops
      && Intern.Int_fifo.length q = Queue.length model
      && List.for_all (fun x -> Intern.Int_fifo.pop q = x)
           (List.of_seq (Queue.to_seq model))
      && Intern.Int_fifo.is_empty q)

(* the compaction path on its own: a full array with its first half
   popped slides the live items down instead of growing *)
let test_int_fifo_compaction () =
  let q = Intern.Int_fifo.create ~capacity:8 () in
  for i = 0 to 7 do
    Intern.Int_fifo.push q i
  done;
  for i = 0 to 4 do
    Alcotest.(check int) "oldest first" i (Intern.Int_fifo.pop q)
  done;
  let words = Intern.Int_fifo.words q in
  for i = 8 to 12 do
    Intern.Int_fifo.push q i
  done;
  Alcotest.(check int) "compacted in place, no growth" words
    (Intern.Int_fifo.words q);
  Alcotest.(check (list int)) "order kept across the slide"
    [ 5; 6; 7; 8; 9; 10; 11; 12 ]
    (List.init 8 (fun _ -> Intern.Int_fifo.pop q));
  Alcotest.(check bool) "drained" true (Intern.Int_fifo.is_empty q);
  match Intern.Int_fifo.pop q with
  | _ -> Alcotest.fail "pop on an empty queue must raise"
  | exception Invalid_argument _ -> ()

(* ---------------- explicit hashes ---------------- *)

let prop_hash_consistent_with_equal =
  QCheck.Test.make ~name:"AP.hash: equal paths hash equal" ~count:500
    arb_ap (fun a ->
      let copy = { AP.base = a.AP.base; AP.fields = a.AP.fields } in
      AP.hash a = AP.hash copy)

(* regression: [Hashtbl.hash] stops after ~10 "meaningful" nodes, so
   structural keys differing only deep in the field chain collided and
   the solver tables degenerated into linked-list scans.  The explicit
   fold visits every segment. *)
let test_deep_hash_no_truncation () =
  let deep tail =
    ap "x" (List.init 14 (fun i -> fld (Printf.sprintf "f%d" i)) @ [ fld tail ])
  in
  let a = deep "left" and b = deep "right" in
  Alcotest.(check bool) "paths differ" false (AP.equal a b);
  Alcotest.(check bool) "polymorphic hash truncates (sanity)" true
    (Hashtbl.hash a = Hashtbl.hash b);
  Alcotest.(check bool) "explicit hash reaches the tail" true
    (AP.hash a <> AP.hash b)

(* ---------------- domain pool ---------------- *)

(* the shared default rule sets and the framework template are built
   on first use, which several domains reach at once when a runner
   fans apps out; a racing [Lazy.force] raised
   [CamlinternalLazy.Undefined] and crashed the app.  This test must
   run before anything else in the process forces them. *)
let test_defaults_first_use_concurrent () =
  let n = 8 in
  let ready = Atomic.make 0 in
  List.init n (fun _ ->
      Domain.spawn (fun () ->
          (* start together, so the first forces overlap *)
          Atomic.incr ready;
          while Atomic.get ready < n do
            Domain.cpu_relax ()
          done;
          ignore (Fd_frontend.Sourcesink.default ());
          ignore (Fd_frontend.Rules.default_wrappers ());
          ignore (Fd_frontend.Rules.default_natives ());
          ignore (Fd_frontend.Framework.fresh_scene ())))
  |> List.iter Domain.join

let prop_pool_map_ordered =
  QCheck.Test.make ~name:"Pool.map: ordered, complete, any job count"
    ~count:50
    QCheck.(pair (int_range 1 6) (list_of_size (Gen.int_bound 40) small_int))
    (fun (jobs, xs) ->
      Pool.map ~jobs (fun x -> x * x) xs = List.map (fun x -> x * x) xs)

(* regression: a throwing [f] on the calling-domain worker used to
   leave the spawned domains unjoined (leaked domains, lost
   exceptions), and only join-time failures were wrapped.  Now any
   worker failure joins everything first and surfaces uniformly as
   [Worker_failed]. *)
let test_pool_worker_failure () =
  let boom = Failure "boom" in
  (* every worker throws on its first claimed item — including worker
     0 (the calling domain), the previously-leaking path *)
  (match Pool.map ~jobs:4 (fun _ -> raise boom) [ 1; 2; 3; 4; 5; 6 ] with
  | _ -> Alcotest.fail "a throwing f must not produce a result"
  | exception Pool.Worker_failed (Failure msg) when String.equal msg "boom" ->
      ()
  | exception e ->
      Alcotest.failf "expected Worker_failed (Failure boom), got %s"
        (Printexc.to_string e));
  (* a single poisoned item among good ones, repeated so the failing
     item lands on different workers across iterations *)
  for _ = 1 to 20 do
    match
      Pool.map ~jobs:3 (fun x -> if x = 13 then raise boom else x)
        [ 1; 13; 2; 3; 4; 5; 6; 7 ]
    with
    | _ -> Alcotest.fail "poisoned batch must fail"
    | exception Pool.Worker_failed _ -> ()
  done;
  (* the pool is still usable afterwards: nothing hung, nothing leaked *)
  Alcotest.(check (list int)) "pool survives failures" [ 2; 4; 6 ]
    (Pool.map ~jobs:3 (fun x -> 2 * x) [ 1; 2; 3 ])

(* ---------------- generator seed mixing ---------------- *)

(* regression: [Prng.create (seed + index * 7919)] made distinct
   (seed, index) pairs collide — (s + 7919, 0) and (s, 1) yielded
   identical apps.  [Intern.combine] mixing keeps every pair's stream
   distinct. *)
let test_generator_seed_mixing () =
  let fingerprint (ga : Fd_appgen.Generator.gen_app) =
    String.concat "\n"
      (List.map Pretty.class_to_string
         ga.Fd_appgen.Generator.ga_apk.Fd_frontend.Apk.apk_classes)
  in
  List.iter
    (fun seed ->
      List.iter
        (fun profile ->
          let a =
            Fd_appgen.Generator.generate ~profile ~seed:(seed + 7919) 0
          in
          let b = Fd_appgen.Generator.generate ~profile ~seed 1 in
          Alcotest.(check bool)
            (Printf.sprintf "apps (s+7919, 0) and (s, 1) differ at s=%d" seed)
            false
            (String.equal (fingerprint a) (fingerprint b)))
        [ Fd_appgen.Generator.Play; Fd_appgen.Generator.Malware ])
    [ 7; 100; 20140609 ]

(* ---------------- --jobs determinism on the real tables ---------------- *)

let test_droidbench_jobs_deterministic () =
  let engines = [ Fd_eval.Engines.flowdroid (); Fd_eval.Engines.appscan ] in
  let render t =
    Fd_eval.Droidbench_table.render t
    ^ Fd_eval.Droidbench_table.render_outcomes t
  in
  let seq = render (Fd_eval.Droidbench_table.run ~jobs:1 engines) in
  let par = render (Fd_eval.Droidbench_table.run ~jobs:4 engines) in
  Alcotest.(check string) "droidbench table identical at jobs 1 vs 4" seq par

let test_securibench_jobs_deterministic () =
  let seq = Fd_eval.Securibench_table.render (Fd_eval.Securibench_table.run ~jobs:1 ()) in
  let par = Fd_eval.Securibench_table.render (Fd_eval.Securibench_table.run ~jobs:4 ()) in
  Alcotest.(check string) "securibench table identical at jobs 1 vs 4" seq par

let () =
  Alcotest.run "fd_perf"
    [
      (* first: it needs the defaults not yet forced *)
      ( "shared-defaults",
        [
          Alcotest.test_case "first use from several domains" `Quick
            test_defaults_first_use_concurrent;
        ] );
      ( "intern",
        List.map QCheck_alcotest.to_alcotest
          [ prop_intern_id_iff_equal; prop_intern_value_roundtrip ]
        @ [
            Alcotest.test_case "pool counters and density" `Quick
              test_intern_counters;
            Alcotest.test_case "value bound-checks unallocated ids" `Quick
              test_intern_value_bounds;
          ] );
      ( "flat-structures",
        List.map QCheck_alcotest.to_alcotest
          [ prop_pair_set_model; prop_int_fifo_model; prop_pair_set_slots ]
        @ [
            Alcotest.test_case "pair set at the id bound" `Quick
              test_pair_set_bounds;
            Alcotest.test_case "fifo compaction" `Quick
              test_int_fifo_compaction;
          ] );
      ( "hash",
        List.map QCheck_alcotest.to_alcotest
          [ prop_hash_consistent_with_equal ]
        @ [ Alcotest.test_case "deep paths hash apart" `Quick
              test_deep_hash_no_truncation ] );
      ( "pool",
        List.map QCheck_alcotest.to_alcotest [ prop_pool_map_ordered ]
        @ [
            Alcotest.test_case "throwing f joins all domains" `Quick
              test_pool_worker_failure;
          ] );
      ( "generator",
        [
          Alcotest.test_case "seed/index mixing is collision-free" `Quick
            test_generator_seed_mixing;
        ] );
      ( "jobs-determinism",
        [
          Alcotest.test_case "droidbench --jobs invariant" `Quick
            test_droidbench_jobs_deterministic;
          Alcotest.test_case "securibench --jobs invariant" `Quick
            test_securibench_jobs_deterministic;
        ] );
    ]
