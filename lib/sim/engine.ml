type t = {
  queue : (unit -> unit) Event_queue.t;
  mutable now : Simtime.t;
  mutable events_processed : int;
  mutable horizon : Simtime.t option;
      (* upper bound of the run span currently executing; clock domains
         batch edges inline up to it instead of re-entering the heap *)
  mutable break_requested : bool;
      (* set by interrupt sources so an inline batch ends early and the
         driving run loop re-checks its condition *)
}

exception Stalled

let create () =
  {
    queue = Event_queue.create ();
    now = Simtime.zero;
    events_processed = 0;
    horizon = None;
    break_requested = false;
  }

let now t = t.now
let horizon t = t.horizon
let peek_next t = Event_queue.peek_time t.queue

(* Allocation-free variant for the clock's per-edge batching check:
   [max_int] when the queue is empty. *)
let[@inline] peek_ps t = Event_queue.peek_time_ps t.queue
let request_break t = t.break_requested <- true

let take_break t =
  if t.break_requested then begin
    t.break_requested <- false;
    true
  end
  else false

let schedule_at t time f =
  if Simtime.(time < t.now) then
    invalid_arg "Engine.schedule_at: time in the past";
  Event_queue.push t.queue ~time f

let schedule_after t delay f = schedule_at t (Simtime.add t.now delay) f

(* The clock's inline edge loop advances time itself: it has this very
   edge bounded the target by the horizon and by the queue head, so a
   guard here would only re-prove facts it just established — at the
   price of one extra queue peek per simulated edge. *)
let[@inline] jump_unchecked t time =
  t.now <- time;
  t.events_processed <- t.events_processed + 1

let step t =
  match Event_queue.pop t.queue with
  | None -> false
  | Some (time, f) ->
    t.now <- time;
    t.events_processed <- t.events_processed + 1;
    f ();
    true

(* Both run loops publish their span bound as the horizon for the duration
   of the loop (restoring the previous bound on exit, so a nested
   [run_until] inside a [run_while] segment batches against its own
   deadline), and clear any break left over from outside the span — a
   break's only meaning is "end the current inline batch". *)
let with_horizon t h f =
  let saved = t.horizon in
  t.horizon <- h;
  t.break_requested <- false;
  Fun.protect ~finally:(fun () -> t.horizon <- saved) f

let run_until t deadline =
  with_horizon t (Some deadline) (fun () ->
      let rec loop () =
        match Event_queue.peek_time t.queue with
        | Some time when Simtime.(time <= deadline) ->
          ignore (step t);
          loop ()
        | Some _ | None -> ()
      in
      loop ());
  if Simtime.(t.now < deadline) then t.now <- deadline

let advance t dt = run_until t (Simtime.add t.now dt)

let run_while ?horizon t cond =
  with_horizon t horizon (fun () ->
      let rec loop () =
        if cond () then
          if step t then loop () else raise Stalled
      in
      loop ())

let events_processed t = t.events_processed

(* Platform pooling: discard every queued event and rewind the timeline to
   the origin, so a reused engine is indistinguishable from [create ()] —
   absolute timestamps (trace events, cycle stamps) match a fresh platform
   bit for bit. *)
let reset t =
  Event_queue.clear t.queue;
  t.now <- Simtime.zero;
  t.events_processed <- 0;
  t.horizon <- None;
  t.break_requested <- false
