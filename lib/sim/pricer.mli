(** Trace once, price many: exact evaluation without re-simulation.

    A run's instruction stream does not depend on the
    microarchitecture: a missing multiplier or a slow decoder costs
    cycles, never instructions.  Only two things do depend on the
    configuration: cache behaviour, which follows the address streams
    through the cache geometry and policy, and window traps, which
    follow the save/restore sequence through the register-window count.

    {!record} executes a program once, untimed ({!Cpu.record}),
    and keeps what is configuration-invariant in a {!Tape}, for the cold
    and the warm epoch alike.
    {!price_phased} rebuilds the {!Machine.run_phased} result for any
    schedule of configurations from the tape: the epochs are cut into
    segments at the switch boundaries, each segment's static cycles come
    from its per-instruction counts and the {!Decode} prices of its
    configuration, and one icache replay and one dcache-and-windows
    replay count the rest per segment, following the schedule's cache
    restarts.  A whole run ({!price}) is the one-segment case, phase
    detection ({!detect}) the per-window case on one configuration.
    Segment counts are memoized per trace by boundaries, icache replays
    by (cache plan, boundaries), dcache replays by (cache plan, window
    class, boundaries); all window counts that never overflow share a
    class.

    One walk of a recording's event stream decodes it and runs the
    window-trap model once, and drives any number of dcache
    configurations as lanes: direct-mapped caches of one line size as a
    single inclusion lane, every other cache as its own {!Cache.t}.  A
    single price is the one-lane walk; {!prime} prices a whole batch in
    a few walks ahead of its per-configuration calls.

    Work counters: [sim.pricer.records] counts recordings,
    [sim.pricer.recorded_insns] the instructions they executed (and the
    histogram [sim.pricer.record_seconds] their wall time),
    [sim.pricer.replays] the cache configurations replayed (one per
    icache walk, one per dcache configuration a walk drives) and
    [sim.pricer.walks] the event-stream walks.

    The result is bit-identical to {!Machine.run_phased} (and so to
    {!Machine.run}) and to {!Phase.detect} for every program whose
    functional behaviour does not depend on the register-window count,
    which holds for every program that leaves each frame's 64-byte
    register save area to the window trap handlers (the SPARC ABI, and
    everything [Minic.Codegen] emits).  The simulator remains the
    oracle: the [pricer-vs-sim] and [phased-pricer-vs-sim] fuzz oracles
    and the pricer tests check the two against each other. *)

type trace
(** One program's recorded cold and warm epochs plus its replay memo.
    Safe to share between domains. *)

val record :
  ?mem_size:int ->
  ?max_insns:int ->
  ?reinit:(Cpu.t -> unit) ->
  Isa.Program.t ->
  trace
(** Record the program's cold and warm epochs on {!Arch.Config.base}.
    Without [reinit] only the cold epoch executes and also serves as the
    warm one: {!Cpu.reinit}, which prepares every warm epoch the
    simulator runs, restores exactly the state {!Cpu.create} leaves
    apart from the caches, and cache contents never change what
    executes, so the warm epoch's tape, checksum and instruction count
    equal the cold epoch's.  With [reinit] the warm epoch executes too,
    prepared by [reinit]; one that perturbs the machine models an
    application whose repeated executions diverge.  [max_insns] is each
    epoch's budget, as in {!Cpu.run}.  Counts [sim.pricer.records] and
    [sim.pricer.recorded_insns], and observes
    [sim.pricer.record_seconds].
    @raise Cpu.Budget_exhausted, Cpu.Error or Memory.Fault as the
    execution does. *)

val price_phased :
  ?reps:int ->
  ?shift_stall:int ->
  ?keep_caches:bool ->
  ?wrap_cycles:int ->
  switches:Machine.switch list ->
  trace ->
  Arch.Config.t ->
  Machine.phased
(** The {!Machine.run_phased} result of the recorded program, without
    flushing metrics: the same result, [phase_profiles] and
    [switch_cycles], with {!Cpu.reconfigure}'s semantics at every real
    switch and nothing at a no-op one.
    @raise Invalid_argument if a configuration is invalid, boundaries
    are not strictly increasing or a switch changes the register-window
    count
    @raise Failure if [reps > 1] and the recorded epochs' checksums
    disagree, as {!Machine.run_phased} does. *)

val price : ?reps:int -> ?shift_stall:int -> trace -> Arch.Config.t -> Machine.result
(** The {!Machine.run} result of the recorded program on [config]: the
    one-segment {!price_phased}. *)

val windows :
  ?shift_stall:int -> trace -> Arch.Config.t -> window:int -> Profiler.t array
(** The cold epoch's profile on [config], window by window: what
    {!Phase.detect} observes between its [Cpu.run_until] stops.  One
    dcache walk cut at the window boundaries; icache misses come from
    first fetches when no icache set receives more distinct lines than
    it has ways (true whenever the icache holds all the code the epoch
    runs, as the base one does for every app), and from a walk of the
    fetch stream otherwise.  Nothing is memoized.
    @raise Invalid_argument if [config] is invalid or [window < 1]. *)

type runner = {
  jobs : int;  (** how many tasks [run] can execute at once *)
  run : (unit -> unit) list -> unit;
      (** executes every task to completion, re-raising a failure *)
}
(** An execution backend for {!prime}'s walks ([sim] sits below the
    domain pool and cannot name it). *)

val sequential : runner
(** One task at a time, on the caller. *)

val prime :
  ?runner:runner ->
  ?boundaries:int list ->
  trace ->
  Arch.Config.t list ->
  unit
(** Prices ahead, as one batch, the dcache replays that pricing each
    configuration on the trace will look up: whole runs without
    [boundaries], runs cut at [boundaries] over identity switches
    (what {!Machine.identity_switches} builds) with them.  The batch
    claims every replay not yet computed or in flight, groups the
    claimed ones by window class and splits them into walks that keep
    [runner.jobs] workers about equally busy; a later {!price} or
    {!price_phased} of a claimed configuration waits for its walk.
    Invalid configurations are skipped.  Results are the same whether
    or not a batch was primed.  Counts [sim.pricer.walks] per walk.
    @raise Invalid_argument if [boundaries] are not strictly increasing
    positive instruction counts. *)

val stored : ?mem_size:int -> Isa.Program.t -> trace
(** The program's trace in the process-wide store {!run}, {!run_phased}
    and {!detect} price from: recorded on first use (concurrent first
    uses share one recording) and kept until {!clear}. *)

val run :
  ?mem_size:int ->
  ?reps:int ->
  ?shift_stall:int ->
  Arch.Config.t ->
  Isa.Program.t ->
  Machine.result
(** Drop-in for {!Machine.run}: same arguments, same result, same
    [sim.*] metrics, priced from the program's {!stored} trace. *)

val run_phased :
  ?mem_size:int ->
  ?reps:int ->
  ?shift_stall:int ->
  ?keep_caches:bool ->
  ?wrap_cycles:int ->
  switches:Machine.switch list ->
  Arch.Config.t ->
  Isa.Program.t ->
  Machine.phased
(** Drop-in for {!Machine.run_phased} over the same store as {!run}. *)

val detect :
  ?options:Phase.options ->
  ?shift_stall:int ->
  ?mem_size:int ->
  Arch.Config.t ->
  Isa.Program.t ->
  Phase.t
(** Drop-in for {!Phase.detect} over the same store as {!run}: the
    change-point fold over {!windows}.  Flushes no metrics, as
    {!Phase.detect} does not; the recording it makes serves every later
    evaluation of the program.
    @raise Invalid_argument on nonsensical options. *)

(** {2 The inclusion lane} *)

module Inclusion : sig
  type t
  (** Direct-mapped dcaches of one line size driven as one lane, as a
      walk drives them: a read probes the caches smallest first and
      stops at the first hit.  Exact because a direct-mapped cache
      changes only on a read miss, so under write-no-allocate a cache
      with [2S] sets holds every line one with [S] sets holds. *)

  val create : segments:int -> Arch.Config.cache list -> t
  (** A cold lane over the caches (equal caches share one), counting
      read misses in [segments] segments.
      @raise Invalid_argument unless there are caches, all direct-mapped
      with one line size. *)

  val read : t -> segment:int -> int -> unit
  (** A read of the address by every cache of the lane, charged to
      [segment].  Writes need no call: they change no direct-mapped
      cache. *)

  val misses : t -> Arch.Config.cache -> int array
  (** The cache's read misses per segment so far.
      @raise Invalid_argument if the cache is not in the lane. *)
end

val clear : unit -> unit
(** Drop every stored trace, so the next evaluation of each program
    records it again. *)

val tape_bytes : trace -> int
(** Storage held by the trace's tapes (shared epochs counted once). *)
