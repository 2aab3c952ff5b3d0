(** The per-method solver profiler (see the interface).

    A process-global registry like {!Metrics}: cells are keyed by
    method name, resolved once per program point by the solver's
    profiler extension (which caches the handles) and then updated with
    atomic operations, so engines profiling on different domains can
    share the registry.  Everything is opt-in: with profiling off the
    solvers never touch this module on the hot path. *)

type cell = {
  c_name : string;
  c_pops : int Atomic.t;  (** worklist pops attributed to the method *)
  c_facts : int Atomic.t;  (** distinct path edges created at its nodes *)
  c_time : float Atomic.t;  (** monotonic seconds spent in its pops *)
}

let lock = Mutex.create ()
let cells : (string, cell) Hashtbl.t = Hashtbl.create 64

let cell name =
  Mutex.lock lock;
  let c =
    match Hashtbl.find_opt cells name with
    | Some c -> c
    | None ->
        let c =
          {
            c_name = name;
            c_pops = Atomic.make 0;
            c_facts = Atomic.make 0;
            c_time = Atomic.make 0.;
          }
        in
        Hashtbl.replace cells name c;
        c
  in
  Mutex.unlock lock;
  c

let now () = Unix.gettimeofday ()

let rec add_float a v =
  let old = Atomic.get a in
  if not (Atomic.compare_and_set a old (old +. v)) then add_float a v

let add_pop c ~seconds =
  Atomic.incr c.c_pops;
  add_float c.c_time seconds

let add_fact c = Atomic.incr c.c_facts

let reset () =
  Mutex.lock lock;
  Hashtbl.reset cells;
  Mutex.unlock lock

type entry = {
  e_name : string;
  e_pops : int;
  e_facts : int;
  e_seconds : float;
}

let entries () =
  Mutex.lock lock;
  let es =
    Hashtbl.fold
      (fun _ c acc ->
        {
          e_name = c.c_name;
          e_pops = Atomic.get c.c_pops;
          e_facts = Atomic.get c.c_facts;
          e_seconds = Atomic.get c.c_time;
        }
        :: acc)
      cells []
  in
  Mutex.unlock lock;
  (* hottest first; ties broken by name so output is deterministic *)
  List.sort
    (fun a b ->
      match compare b.e_seconds a.e_seconds with
      | 0 -> compare a.e_name b.e_name
      | c -> c)
    es

let top ~k = List.filteri (fun i _ -> i < k) (entries ())
let enabled () = Hashtbl.length cells > 0

let to_json ?(k = 20) () =
  Json.List
    (List.map
       (fun e ->
         Json.Obj
           [
             ("method", Json.String e.e_name);
             ("pops", Json.Int e.e_pops);
             ("facts", Json.Int e.e_facts);
             ("seconds", Json.Float e.e_seconds);
           ])
       (top ~k))

(* collapsed-stack format, one frame stack per line with a sample
   weight — exactly what flamegraph.pl / speedscope / inferno consume.
   The solver attributes flat per-method time, so each line is a
   two-frame stack rooted at the process name; weights are in
   microseconds (integers, as the tools expect). *)
let collapsed () =
  let buf = Buffer.create 1024 in
  List.iter
    (fun e ->
      let usec = int_of_float (e.e_seconds *. 1e6) in
      if usec > 0 then
        Buffer.add_string buf
          (Printf.sprintf "flowdroid;%s %d\n" e.e_name usec))
    (entries ());
  Buffer.contents buf

let write_collapsed ~path =
  let write oc = output_string oc (collapsed ()) in
  if String.equal path "-" then begin
    write stdout;
    flush stdout
  end
  else begin
    let oc = open_out_bin path in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write oc)
  end
