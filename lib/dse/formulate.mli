(** The paper's Section 4 problem formulation.

    Translates a measured model into a constrained Binary Integer
    Nonlinear Program over the decision variables x1..x52:

    - objective: minimize [sum (w1 rho_i + w2 (lambda_i + beta_i)) x_i];
    - SOS1 constraints: at most one value per multi-valued parameter;
    - LEON validity couplings: LRR requires 2-way associativity
      ([x10 <= x1], [x21 <= x12]), LRU requires multi-way
      ([x11 <= x1+x2+x3], [x22 <= x12+x13+x14]);
    - FPGA resource constraints: total extra LUT%% <= L and BRAM%% <= B
      (the headroom left by the base configuration), where each cache's
      cost is the {e product} of its ways term [(1 + x_w2 + 2 x_w3 +
      3 x_w4)] and its per-way size deltas — the paper keeps the LUT
      constraint linear (LUT variation is small) and the BRAM
      constraint nonlinear; [variant] lets you swap either, which is
      how the paper's "LUTs%%-nonlin" and "BRAM%%-lin" rows arise. *)

type variant = Stack.variant = {
  lut_nonlinear : bool;  (** default false, as in the paper *)
  bram_linear : bool;    (** default false, as in the paper *)
}

val paper_variant : variant
val make : ?variant:variant -> Cost.weights -> Measure.model -> Optim.Binlp.problem
(** @raise Invalid_argument naming the row and the field if a measured
    delta is not finite; the target's [make_schedule] checks every phase
    model the same way. *)

val make_custom :
  objective:(Measure.row -> float) ->
  ?variant:variant ->
  Measure.model ->
  Optim.Binlp.problem
(** Same constraints, arbitrary per-variable objective — used by
    extensions such as the energy optimizer. *)

val vars_of_solution : Measure.model -> Optim.Binlp.solution -> Arch.Param.var list
(** Decode: the selected perturbations, in paper index order. *)

val predicted_deltas :
  ?variant:variant -> Measure.model -> Arch.Param.var list -> Cost.deltas
(** The optimizer's linear-superposition cost approximation for a set
    of simultaneous perturbations: rho by summation; lambda/beta by the
    constraint-side formulas of [variant] (product form where
    nonlinear, plain summation where linear). *)
