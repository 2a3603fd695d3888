(** Trace once, price many: exact whole-run evaluation without
    re-simulation.

    A whole run's instruction stream does not depend on the
    microarchitecture: a missing multiplier or a slow decoder costs
    cycles, never instructions.  Only two things do depend on the
    configuration: cache behaviour, which follows the address streams
    through the cache geometry and policy, and window traps, which
    follow the save/restore sequence through the register-window count.

    {!record} executes a program once per epoch (cold, then warm) and
    keeps what is configuration-invariant in a {!Tape}.  {!price}
    rebuilds the {!Machine.run} result for any configuration from the
    tape: static cycles from the per-instruction counts and the
    {!Decode} prices, plus one icache replay and one dcache-and-windows
    replay.  Replay counts are memoized per trace: icache replays by
    icache configuration, dcache replays by dcache configuration and
    window count (all window counts that never overflow share one
    entry).

    The result is bit-identical to {!Machine.run} for every program
    whose functional behaviour does not depend on the register-window
    count, which holds for every program that leaves each frame's
    64-byte register save area to the window trap handlers (the SPARC
    ABI, and everything [Minic.Codegen] emits).  {!Machine.run} remains
    the oracle: the [pricer-vs-sim] fuzz oracle and the pricer tests
    check the two against each other. *)

type trace
(** One program's recorded cold and warm epochs plus its replay memo.
    Safe to share between domains. *)

val record :
  ?mem_size:int ->
  ?max_insns:int ->
  ?reinit:(Cpu.t -> unit) ->
  Isa.Program.t ->
  trace
(** Execute both epochs on {!Arch.Config.base} and record them.
    [max_insns] is each epoch's budget, as in {!Cpu.run}.  [reinit]
    prepares the warm epoch (default {!Cpu.reinit}); a [reinit] that
    perturbs the machine models an application whose repeated
    executions diverge.  Counts [sim.pricer.records].
    @raise Cpu.Budget_exhausted, Cpu.Error or Memory.Fault as the
    execution does. *)

val price : ?reps:int -> ?shift_stall:int -> trace -> Arch.Config.t -> Machine.result
(** The {!Machine.run} result of the recorded program on [config],
    without flushing metrics.
    @raise Invalid_argument if [config] is invalid
    @raise Failure if [reps > 1] and the recorded epochs' checksums
    disagree, as {!Machine.run} does. *)

val run :
  ?mem_size:int ->
  ?reps:int ->
  ?shift_stall:int ->
  Arch.Config.t ->
  Isa.Program.t ->
  Machine.result
(** Drop-in for {!Machine.run}: same arguments, same result, same
    [sim.*] metrics.  The program's trace comes from a process-wide
    store, recorded on the first evaluation (concurrent first
    evaluations share one recording) and kept until {!clear}. *)

val clear : unit -> unit
(** Drop every stored trace, so the next evaluation of each program
    records it again. *)

val tape_bytes : trace -> int
(** Storage held by the trace's tapes (shared epochs counted once). *)
