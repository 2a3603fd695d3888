(* Work-stealing deque: the owner pushes and pops newest at the back,
   thieves take the oldest from the front.  A plain mutex per deque is
   enough at this granularity — tasks are simulator runs, so queue
   operations are noise next to task bodies. *)
module Deque = struct
  type 'a t = {
    m : Mutex.t;
    mutable front : 'a list; (* oldest first *)
    mutable back : 'a list; (* newest first *)
  }

  let create () = { m = Mutex.create (); front = []; back = [] }

  let push t x =
    Mutex.lock t.m;
    t.back <- x :: t.back;
    Mutex.unlock t.m

  let pop_back t =
    Mutex.lock t.m;
    let r =
      match t.back with
      | x :: rest ->
          t.back <- rest;
          Some x
      | [] -> (
          match List.rev t.front with
          | x :: rest ->
              t.front <- [];
              t.back <- rest;
              Some x
          | [] -> None)
    in
    Mutex.unlock t.m;
    r

  let pop_front t =
    Mutex.lock t.m;
    let r =
      match t.front with
      | x :: rest ->
          t.front <- rest;
          Some x
      | [] -> (
          match List.rev t.back with
          | x :: rest ->
              t.back <- [];
              t.front <- rest;
              Some x
          | [] -> None)
    in
    Mutex.unlock t.m;
    r
end

type task = unit -> unit

type t = {
  deques : task Deque.t array; (* one per worker *)
  mutex : Mutex.t; (* sleep/wake of idle workers *)
  cond : Condition.t;
  pending : int Atomic.t; (* enqueued tasks not yet popped *)
  rr : int Atomic.t; (* round-robin submission cursor *)
  mutable stop : bool;
  mutable domains : unit Domain.t list;
}

let m_tasks =
  Obs.Metrics.Counter.v "dse.pool.tasks"
    ~help:"tasks executed by the evaluation domain pool"

let g_workers =
  Obs.Metrics.Gauge.v "dse.pool.workers"
    ~help:"peak worker domains in the evaluation domain pool"

(* Peak high-water mark, never lowered: exporters (bench JSON, the
   history gate) snapshot metrics after searches finish, which may be
   after every pool was shut down and joined — the interesting value
   is how wide the pool ever was, not its post-join width. *)
let note_workers w =
  if w > Obs.Metrics.Gauge.value g_workers then
    Obs.Metrics.Gauge.set g_workers w

let size t = Array.length t.deques

(* Worker identity, set once per worker domain.  A nested [run_batch]
   submitted from inside a pool task (e.g. the parallel BINLP solver
   called by an Engine evaluation) helps with the submitting worker's
   own deque LIFO-first instead of only stealing, exactly like the
   worker loop itself. *)
let dls_worker : (t * int) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let self_index t =
  match Domain.DLS.get dls_worker with
  | Some (p, i) when p == t -> i
  | _ -> -1

(* Take one task: worker [i] pops its own deque's back, then steals
   from siblings' fronts; [i = -1] (the submitting caller) only
   steals.  Decrements [pending] exactly when a task is obtained. *)
let take t i =
  let n = Array.length t.deques in
  let own = if i >= 0 then Deque.pop_back t.deques.(i) else None in
  let r =
    match own with
    | Some _ -> own
    | None ->
        let start = if i >= 0 then i + 1 else 0 in
        let rec steal k =
          if k >= n then None
          else
            match Deque.pop_front t.deques.((start + k) mod n) with
            | Some _ as r -> r
            | None -> steal (k + 1)
        in
        steal 0
  in
  (match r with Some _ -> Atomic.decr t.pending | None -> ());
  r

(* Every executed task — queued on a worker, run by the helping
   submitter, or run inline on the caller (singleton batches, the
   single-core fallback) — goes through [counted], so [dse.pool.tasks]
   accounts for all evaluation work, not just what crossed a deque. *)
let counted f =
  Obs.Metrics.Counter.incr m_tasks;
  f ()

let run_task (task : task) = counted task

let run_inline f =
  (* Inline execution means the calling domain is the whole "pool";
     reflect that in the worker gauge rather than leaving it at 0. *)
  note_workers 1.0;
  counted f

let worker t i () =
  Domain.DLS.set dls_worker (Some (t, i));
  let rec loop () =
    match take t i with
    | Some task ->
        run_task task;
        loop ()
    | None ->
        Mutex.lock t.mutex;
        while (not t.stop) && Atomic.get t.pending = 0 do
          Condition.wait t.cond t.mutex
        done;
        let finished = t.stop && Atomic.get t.pending = 0 in
        Mutex.unlock t.mutex;
        if not finished then loop ()
  in
  loop ()

let create ?workers () =
  let workers =
    match workers with
    | Some w when w >= 1 -> w
    | Some _ -> invalid_arg "Pool.create: workers must be >= 1"
    | None -> max 1 (Domain.recommended_domain_count () - 1)
  in
  let t =
    {
      deques = Array.init workers (fun _ -> Deque.create ());
      mutex = Mutex.create ();
      cond = Condition.create ();
      pending = Atomic.make 0;
      rr = Atomic.make 0;
      stop = false;
      domains = [];
    }
  in
  note_workers (float_of_int workers);
  t.domains <- List.init workers (fun i -> Domain.spawn (worker t i));
  t

let shutdown t =
  Mutex.lock t.mutex;
  t.stop <- true;
  Condition.broadcast t.cond;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.domains;
  t.domains <- []

let enqueue t task =
  let i = Atomic.fetch_and_add t.rr 1 land max_int mod Array.length t.deques in
  Deque.push t.deques.(i) task;
  Atomic.incr t.pending

let run_batch t tasks =
  match tasks with
  | [] -> ()
  | [ f ] -> counted f
  | _ ->
      let n = List.length tasks in
      Obs.Span.with_ ~cat:"dse" "pool.batch"
        ~attrs:
          [ ("items", Obs.Json.Int n); ("workers", Obs.Json.Int (size t)) ]
      @@ fun () ->
      let remaining = Atomic.make n in
      let failure = Atomic.make None in
      let bm = Mutex.create () in
      let bc = Condition.create () in
      let wrap f () =
        (if Atomic.get failure = None then
           match f () with
           | () -> ()
           | exception e ->
               let bt = Printexc.get_raw_backtrace () in
               ignore (Atomic.compare_and_set failure None (Some (e, bt))));
        if Atomic.fetch_and_add remaining (-1) = 1 then begin
          Mutex.lock bm;
          Condition.broadcast bc;
          Mutex.unlock bm
        end
      in
      List.iter (fun f -> enqueue t (wrap f)) tasks;
      Mutex.lock t.mutex;
      Condition.broadcast t.cond;
      Mutex.unlock t.mutex;
      (* The submitter helps: run queued tasks (of this batch or a
         concurrent one) until this batch completes — popping its own
         deque first when the submitter is itself a worker of this
         pool (nested batch), stealing otherwise.  It parks on [bc]
         only when nothing is queued anywhere, i.e. the rest of the
         batch is already executing on workers. *)
      let self = self_index t in
      let rec help () =
        if Atomic.get remaining > 0 then begin
          (match take t self with
          | Some task -> run_task task
          | None ->
              Mutex.lock bm;
              if Atomic.get remaining > 0 && Atomic.get t.pending = 0 then
                Condition.wait bc bm;
              Mutex.unlock bm);
          help ()
        end
      in
      help ();
      (match Atomic.get failure with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ())

let map t f xs =
  match xs with
  | [] -> []
  | [ x ] -> [ counted (fun () -> f x) ]
  | _ ->
      let input = Array.of_list xs in
      let n = Array.length input in
      let output = Array.make n None in
      run_batch t (List.init n (fun i () -> output.(i) <- Some (f input.(i))));
      Array.to_list
        (Array.map (function Some y -> y | None -> assert false) output)

(* Adapt a pool to the solver's injected execution backend ([optim]
   cannot depend on [dse], so Binlp takes this record instead of a
   pool).  [workers = size t]: on a single-core host the default pool
   has one worker, so the solver takes its inline path and node
   accounting stays exactly sequential; with >= 2 workers it splits
   the frontier and the batch runs here with the submitter helping. *)
let solver_runner t =
  {
    Optim.Binlp.workers = size t;
    run_batch = (fun tasks -> run_batch t tasks);
  }

let pricer_runner t = { Sim.Pricer.jobs = size t + 1; run = run_batch t }

let default_mutex = Mutex.create ()
let default_pool = ref None

let default () =
  Mutex.lock default_mutex;
  let p =
    match !default_pool with
    | Some p -> p
    | None ->
        let p = create () in
        at_exit (fun () -> shutdown p);
        default_pool := Some p;
        p
  in
  Mutex.unlock default_mutex;
  p
