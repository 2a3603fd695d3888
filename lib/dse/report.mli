(** Experiment drivers and table renderers for every figure in the
    paper's evaluation (see DESIGN.md's per-experiment index).

    Each [run_figN] executes our full pipeline (simulator + resource
    model + optimizer) and returns structured results; each
    [print_figN] renders them next to the paper's published values. *)

val print_fig1 : Format.formatter -> unit
(** The reconfigurable-parameter table and design-space cardinalities. *)

type fig2 = {
  points : Leon2.Exhaustive.point list;   (** 28 geometry points, Figure 2 order *)
  optimal : Leon2.Exhaustive.point;       (** runtime-optimal feasible point *)
}

val run_fig2 : Apps.Registry.t -> fig2
val print_fig2 : Format.formatter -> fig2 -> unit

type fig3 = {
  model : Leon2.Measure.model;            (** dcache-dims one-at-a-time model *)
  outcome : Leon2.Optimizer.outcome;      (** w1=100, w2=0 pick *)
}

val run_fig3 : Apps.Registry.t -> fig3
val print_fig3 : Format.formatter -> fig3 -> unit

type fig4_row = {
  app : Apps.Registry.t;
  exhaustive_best : Leon2.Exhaustive.point option;  (** None: no dcache effect *)
  optimizer_pick : Leon2.Optimizer.outcome;
}

val run_fig4 : unit -> fig4_row list
(** DRR, FRAG and Arith (BLASTN being Figures 2/3). *)

val print_fig4 : Format.formatter -> fig4_row list -> unit

val run_fig5 : unit -> Leon2.Optimizer.outcome list
(** Full-space runtime optimization (w1=100, w2=1), all four apps. *)

val print_fig5 : Format.formatter -> Leon2.Optimizer.outcome list -> unit

val run_fig6 : Leon2.Measure.model -> (Leon2.Measure.row * (string * float * int * int)) list
(** BLASTN one-at-a-time costs for the parameters of the paper's
    Figure 6, paired with the paper's row. *)

val print_fig6 : Format.formatter -> Leon2.Measure.model -> unit

val run_fig7 : unit -> Leon2.Optimizer.outcome list
(** Chip-resource optimization (w1=1, w2=100), all four apps. *)

val print_fig7 : Format.formatter -> Leon2.Optimizer.outcome list -> unit
