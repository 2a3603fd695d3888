(** The shared evaluation engine: every [(application, configuration)
    → cost] evaluation in the DSE stack goes through here.

    The paper's bottleneck is evaluation cost — each candidate
    configuration costs a ~30-minute synthesis, which is why it
    measures only 52 one-at-a-time perturbations.  Our reproduction
    inherits that shape in software: simulation plus resource
    estimation dominates every experiment's wall clock, and the
    experiments overlap heavily (the base configuration is re-measured
    by nearly every client; the Figure 2/3/4 sweeps share points with
    the one-at-a-time model).  The engine turns that cross-experiment
    redundancy into cache hits.

    {b Memoization.}  Results are stored in a content-addressed memo
    cache keyed by [(target name, application name, digest of the
    target codec's canonical encoding, noise amplitude)].  Evaluation
    is
    deterministic — the simulator is cycle-accurate and the synthesis
    model analytic, with {e deterministic} per-configuration
    measurement noise — so a memoized result is bit-identical to a
    recomputation.  Distinct noise amplitudes occupy distinct keys,
    which is what makes noise-ablation studies safe: they never
    observe each other's (differently perturbed) measurements.
    Including the target name keeps two targets that happen to share a
    configuration encoding from ever colliding in the cache.

    {b Targets.}  Every entry point evaluates any backend through its
    {!Target.probe}; LEON2 callers pass [Target_leon2.probe].

    {b Deduplication.}  Concurrent requests for an in-flight key wait
    for the winner's result instead of recomputing, and the batch APIs
    collapse repeated requests before scheduling.

    {b Parallelism.}  Batch evaluations fan out on the persistent
    {!Pool} (work-stealing domain pool) instead of spawning domains
    per call.

    {b Observability.}  [dse.engine.hits], [dse.engine.misses] and
    [dse.engine.inflight_dedup] count cache behavior;
    [dse.builds] counts configurations actually synthesized and
    executed (i.e. cache misses that reached the simulator); each miss
    runs under an [engine.build] span. *)

type t

val default : unit -> t
(** The shared process-wide engine (on the {!Pool.default} pool),
    created on first use.  All library clients use this instance, so
    one experiment's evaluations are the next one's cache hits. *)

val create : ?pool:Pool.t -> unit -> t
(** A fresh engine with an empty cache (for tests).  An explicit
    [pool] is always used for batches; otherwise {!Pool.default} is
    resolved lazily and only on hosts with more than one core —
    single-core machines run batches inline, where a second domain is
    pure stop-the-world overhead. *)

val clear : t -> unit
(** Drop every cached result and every recorded pricing trace
    ({!Sim.Pricer.clear}), so the next evaluation of an application
    records it again; counters are unaffected.  For tests and requests
    that need a cold engine. *)

val eval_on :
  ?noise:float -> t -> 'c Target.probe -> Apps.Registry.t -> 'c -> Cost.t
(** Synthesize and run one configuration of an arbitrary target,
    memoized under the probe's target name.  [noise] is the
    deterministic LUT measurement-noise amplitude (fraction of the
    device); see {!Stack.Make.Measure}.
    @raise Invalid_argument on structurally invalid configurations. *)

val eval_profiled_on :
  ?noise:float ->
  t ->
  'c Target.probe ->
  Apps.Registry.t ->
  'c ->
  Cost.t * Sim.Profiler.t
(** Like {!eval_on} but also returns the execution profile of the
    (memoized) simulation — the energy model charges per-event costs
    from it without a second run. *)

val eval_feasible_on :
  ?noise:float -> t -> 'c Target.probe -> Apps.Registry.t -> 'c -> Cost.t option
(** [None] when the configuration is invalid per the probe or exceeds
    the probe's device budget.  Resources are elaborated {e once} and
    reused for both the feasibility check (on the un-noised estimate)
    and the returned cost; over-capacity configurations are cached
    without ever reaching the simulator. *)

val eval_all_segments_on :
  ?noise:float ->
  t ->
  'c Target.probe ->
  phases:Sim.Phase.t ->
  segmented:(Apps.Registry.t -> 'c -> float * Sim.Profiler.t * Sim.Profiler.t list) ->
  Apps.Registry.t ->
  'c list ->
  (Cost.t * Sim.Profiler.t list) list
(** Per-phase measurement of one application's configurations, in
    input order, with the same deduplication and pooling as
    {!eval_all_feasible_on}: like {!eval_on}, but the simulation is the
    caller-supplied [segmented] function returning [(seconds,
    whole-run profile, per-phase profiles)] of a run cut at the
    boundaries of [phases], and the memo key is extended with the
    segmentation digest ({!Sim.Phase.digest}), so the same
    configuration's whole-run and per-phase measurements coexist in
    the cache, and two different segmentations never collide.
    [segmented] must be deterministic for the [(phases, configuration)]
    pair. *)

val prime :
  ?noise:float -> t -> 'c Target.probe -> Apps.Registry.t -> 'c list -> unit
(** Hand a batch of whole-run evaluations of one application to the
    probe's pricing hook ([probe.prime]) before evaluating them one by
    one: the configurations the engine would simulate (not those it has
    cached) are priced in a few walks on the engine's pool, and the
    evaluations that follow find them memoized.  The batch entry points
    do this themselves.  Changes no result and no engine
    counter. *)

val eval_all_feasible_on :
  ?noise:float ->
  t ->
  'c Target.probe ->
  Apps.Registry.t ->
  'c list ->
  Cost.t option list
(** Batch {!eval_feasible_on} for one application, in input order.
    Repeated requests are collapsed before scheduling (counted as
    [dse.engine.inflight_dedup]), the valid configurations that fit are
    primed ({!prime}), and the distinct requests fan out on the pool. *)
