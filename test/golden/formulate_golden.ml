(* Golden formulation: the BINLP problems [Formulate] builds from
   frag's full measured model on every registered target, rendered by
   {!Fuzz.Gen.print_binlp}.  Covers the static formulation under the
   paper's variant and its alternative (nonlinear LUT, linear BRAM),
   and the two-phase schedule formulation with its switch terms.
   Measured deltas are deterministic, so every coefficient, group and
   constraint diffs byte-for-byte. *)

let () =
  List.iter
    (fun (module T : Dse.Target.S) ->
      let module S = Dse.Stack.Make (T) in
      let model = S.Measure.build Apps.Registry.frag in
      let weights = Dse.Cost.runtime_weights in
      let show title p =
        Printf.printf "== %s frag %s\n%s" T.name title (Fuzz.Gen.print_binlp p)
      in
      show "make" (S.Formulate.make weights model, []);
      show "make lut_nonlinear bram_linear"
        ( S.Formulate.make
            ~variant:{ Dse.Stack.lut_nonlinear = true; bram_linear = true }
            weights model,
          [] );
      let sched = S.Formulate.make_schedule ~reps:2 ~weights [ model; model ] in
      show "make_schedule reps=2 phases=2"
        (sched.S.Formulate.problem, sched.S.Formulate.switch_terms))
    Dse.Targets.all
