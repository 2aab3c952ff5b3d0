(** App-level parallelism: a [Domain]-based worker pool (see the
    interface).  Work items are claimed from an atomic counter, so the
    schedule is dynamic, but results are stored by input index — the
    output order (and therefore every rendered table) is identical at
    any job count. *)

module M = Fd_obs.Metrics

let m_batches = M.counter "pool.batches"
let m_tasks = M.counter "pool.tasks"
let g_jobs = M.gauge "pool.jobs"

exception Worker_failed of exn

let map ?(jobs = 1) f xs =
  if jobs <= 1 then List.map f xs
  else begin
    let arr = Array.of_list xs in
    let n = Array.length arr in
    let out = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      let did = ref 0 in
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          out.(i) <- Some (f arr.(i));
          incr did;
          loop ()
        end
      in
      loop ();
      !did
    in
    M.incr m_batches;
    M.add m_tasks n;
    M.set_int g_jobs jobs;
    let workers = min jobs (max n 1) in
    let spawned = List.init (workers - 1) (fun _ -> Domain.spawn worker) in
    (* the calling domain is worker 0: no idle coordinator.  Whatever
       happens, every spawned domain is joined exactly once before we
       return or re-raise — a failure in any worker (including worker
       0) must not leak domains or lose the other workers' exceptions.
       The first failure in worker order wins; all are wrapped
       uniformly in [Worker_failed]. *)
    let own = match worker () with c -> Ok c | exception e -> Error e in
    let joined =
      List.map
        (fun d -> match Domain.join d with c -> Ok c | exception e -> Error e)
        spawned
    in
    let counts =
      List.map
        (function Ok c -> c | Error e -> raise (Worker_failed e))
        (own :: joined)
    in
    List.iteri
      (fun i c -> M.add (M.counter (Printf.sprintf "pool.tasks.d%d" i)) c)
      counts;
    Array.to_list
      (Array.map
         (function
           | Some v -> v
           | None ->
               (* unreachable: every index below [n] is claimed and
                  filled before the joins return *)
               assert false)
         out)
  end
