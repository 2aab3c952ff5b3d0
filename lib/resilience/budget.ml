(** Cooperative work/time budgets (see the .mli). *)

let m_budget_hits = Fd_obs.Metrics.counter "resilience.budget_hits"
let m_deadline_hits = Fd_obs.Metrics.counter "resilience.deadline_hits"
let m_cancellations = Fd_obs.Metrics.counter "resilience.cancellations"

(* how many ticks between wall-clock checks; the first tick always
   checks so zero-second deadlines fire even on tiny apps *)
let clock_period = 256

(* process-wide cooperative cancellation: set (async-signal-safely)
   by a SIGINT/SIGTERM handler, observed by every live budget at its
   next tick and by every budget created afterwards — so an
   interrupted campaign drains its per-app loop with [Cancelled]
   outcome rows instead of dying mid-write *)
let global_cancel = Atomic.make false

let cancel_all () = Atomic.set global_cancel true
let cancelling_all () = Atomic.get global_cancel

type t = {
  b_deadline : float option;  (** absolute Unix.gettimeofday value *)
  b_max_props : int;
  b_chaos : Chaos.t option;
  mutable b_props : int;
  mutable b_stop : Outcome.t option;  (** [None] while live *)
  mutable b_countdown : int;  (** ticks until the next clock check *)
  mutable b_cancel : bool;  (** set asynchronously, observed at ticks *)
}

let create ?deadline_s ?(max_propagations = max_int) ?chaos () =
  {
    b_deadline = Option.map (fun s -> Unix.gettimeofday () +. s) deadline_s;
    b_max_props = max_propagations;
    b_chaos = chaos;
    b_props = 0;
    b_stop = None;
    b_countdown = 1;
    b_cancel = false;
  }

let unlimited () = create ()

let stop t reason counter =
  if t.b_stop = None then begin
    t.b_stop <- Some reason;
    Fd_obs.Metrics.incr counter
  end

(* [>=] so a zero-second deadline trips even when create and check
   land in the same clock microsecond *)
let deadline_passed t =
  match t.b_deadline with
  | Some d -> Unix.gettimeofday () >= d
  | None -> false

let observe_cancel t =
  if t.b_cancel || Atomic.get global_cancel then
    stop t Outcome.Cancelled m_cancellations

let tick t =
  observe_cancel t;
  match t.b_stop with
  | Some _ -> false
  | None ->
      t.b_props <- t.b_props + 1;
      if t.b_props > t.b_max_props then begin
        stop t Outcome.Budget_exhausted m_budget_hits;
        false
      end
      else begin
        t.b_countdown <- t.b_countdown - 1;
        if t.b_countdown <= 0 then begin
          t.b_countdown <- clock_period;
          Chaos.fail_point t.b_chaos "solver.step";
          if deadline_passed t then
            stop t Outcome.Deadline_exceeded m_deadline_hits
        end;
        t.b_stop = None
      end

let stopped t =
  observe_cancel t;
  (match t.b_stop with
  | None -> if deadline_passed t then stop t Outcome.Deadline_exceeded m_deadline_hits
  | Some _ -> ());
  t.b_stop <> None

let cancel t = t.b_cancel <- true

let outcome t =
  match t.b_stop with Some o -> o | None -> Outcome.Complete

let propagations t = t.b_props

let post_mortem t ring render =
  let events = Fd_obs.Ring.render ring render in
  match t.b_stop with
  | None -> events
  | Some reason ->
      let stop =
        Printf.sprintf "budget.stop %s props=%d" (Outcome.to_string reason)
          t.b_props
      in
      if events = "" then stop else events ^ " | " ^ stop
