(** Random-input generators for the differential fuzzer.

    Everything here is built on {!QCheck2.Gen}, so shrinking comes for
    free: QCheck2 shrinks by re-running the generator on smaller
    random choices, which means every shrunk candidate still satisfies
    the generators' safety invariants.

    The minic program generator is {e safe by construction} on every
    path, not merely on the executed one: array indices are masked to
    the array bounds, division and modulo only ever see a non-zero
    literal divisor, loops are counter loops whose counter nothing
    else writes, and every local is initialized before use.  A
    generated program therefore always terminates and never traps, so
    an oracle can treat any interpreter trap, any simulator
    divergence, and any "definite trap" / "possibly uninitialized"
    lint finding as a genuine bug. *)

(** Statement-mix profiles for minic program generation. *)
type profile = Straightline | Branching | Looping | Callish | Mixed

val all_profiles : profile list
val profile_name : profile -> string

val program_of_profile : profile -> Minic.Ast.program QCheck2.Gen.t

val program : Minic.Ast.program QCheck2.Gen.t
(** Profile-weighted mix of {!program_of_profile}. *)

val print_program : Minic.Ast.program -> string

val cache : Arch.Config.cache QCheck2.Gen.t
(** Uniform draw over the structural cache space (ways, way size,
    line size, and a replacement policy the associativity allows). *)

val config : Arch.Config.t QCheck2.Gen.t
(** Uniform draw over the structural configuration space; always
    passes {!Arch.Config.validate}. *)

val print_config : Arch.Config.t -> string

val mb_config : Arch.Mb_config.t QCheck2.Gen.t
(** Uniform draw over the MicroBlaze-like structural space; always
    passes {!Arch.Mb_config.validate}. *)

val print_mb_config : Arch.Mb_config.t -> string

val binlp_problem : (Optim.Binlp.problem * Optim.Binlp.term list) QCheck2.Gen.t
(** Small instances (at most 6 variables, 2 SOS1 groups, 3
    constraints, product terms included) with half-integer
    coefficients, sized for brute-force cross-checking, and 0–3
    objective terms for [Optim.Binlp.solve ~objective_terms]: linear or
    products of two linear forms, whose forms may repeat a variable and
    carry zero coefficients. *)

val print_binlp : Optim.Binlp.problem * Optim.Binlp.term list -> string

val binlp_nonfinite :
  ((Optim.Binlp.problem * Optim.Binlp.term list)
  * string
  * (Optim.Binlp.problem * Optim.Binlp.term list))
  QCheck2.Gen.t
(** Adversarial floats: a {!binlp_problem} instance, and the same
    instance with [nan], [+inf] or [-inf] planted at one uniformly
    chosen number — an objective entry, a constraint coefficient,
    constant or bound, or an objective-term coefficient or constant —
    together with the field as {!Optim.Binlp}'s validation names it
    (e.g. ["bound of constraint 1"]). *)

val json : Obs.Json.t QCheck2.Gen.t
(** Finite floats only (JSON cannot round-trip inf/nan). *)

val print_json : Obs.Json.t -> string
