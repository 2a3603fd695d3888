(** The paper's technique on a different configuration-management
    problem — its conclusion proposes "evaluat[ing] our technique on
    other configuration and feature management problems": tuning the
    DRR scheduler's {e software} parameters — queue count, slots per
    queue and the service quantum — for a memory-constrained appliance.

    Costs are measured the same way the paper measures the processor:
    the parameterized scheduler ({!Apps.Drr.make_program}) is compiled
    and executed on the simulated base processor.  Dimensions:

    - {b cycles per serviced kilobyte}: scheduling efficiency (plain
      cycles would reward dropping traffic);
    - {b state bytes}: queue buffers plus per-queue bookkeeping.

    {!optimize} runs the paper's method unchanged: perturb one option
    at a time, record percent deltas per dimension, minimize the
    weighted delta sum with the exact solver under one SOS1 group per
    parameter and a linear byte budget (the appliance's 12 KB of
    scratch memory), decode, and verify by a final measurement. *)

type config = { queues : int; slots : int; quantum : int }

val base : config
(** The paper benchmark's geometry: 256 x 16, quantum 400. *)

val state_bytes : config -> int
val measure : config -> float array
(** [[| cycles per KB served; state bytes |]]. *)

type outcome = {
  base_costs : float array;
  selected : (string * string) list;  (** (parameter, value) pairs *)
  config : config;
  predicted : float array;  (** summed percent deltas *)
  actual : float array;  (** measured percent deltas *)
}

val optimize : weights:float array -> outcome
(** [weights] has one entry per dimension.
    @raise Invalid_argument on a wrong weight count.
    @raise Failure when no selection fits the budget. *)

val print_outcome : Format.formatter -> outcome -> unit
