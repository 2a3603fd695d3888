(* Solver-throughput smoke test (@solver-perf): solve two fixed BINLP
   instances — the paper's static 52-variable shape with a product
   (cache-resource) constraint, and a phase-schedule shape whose switch
   costs are objective terms — twice each in one process, record
   nodes-per-second for each run, and gate the second run against the
   first with the standard bench-history rules: solver_nodes pinned at
   1.05x (the formulation is deterministic, so any drift is a bug) and
   binlp_nodes_per_second floored at 0.67x.  Each run times its fastest
   of several solves, interleaved with the other run's, since one
   compiled solve takes milliseconds.
   The bench binary applies the same rules across processes via
   BENCH_history.jsonl; this rule makes the gate self-testing in a
   sandboxed build. *)

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let lin coeffs const = { Optim.Binlp.coeffs; const }

(* Deterministic ablation-class instance: the paper's shape (SOS1
   option groups, a multiplicative cache-resource coupling, a linear
   budget) sized so the budget binds at roughly a third of the
   variables — the knapsack-like regime where the objective bound
   prunes weakly and the tree genuinely explores a few hundred
   thousand nodes.  All coefficients are exact dyadic rationals, so
   the node count and winner are bit-deterministic. *)
let static_problem () =
  let nvars = 30 in
  let objective =
    Array.init nvars (fun j -> -.float_of_int ((j * 7 mod 13) + 1) /. 4.0)
  in
  let groups = [ [ 0; 1; 2 ]; [ 3; 4; 5; 6 ] ] in
  let w =
    List.init nvars (fun j -> (j, float_of_int ((j * 5 mod 11) + 3) /. 2.0))
  in
  let total = List.fold_left (fun acc (_, x) -> acc +. x) 0.0 w in
  {
    Optim.Binlp.nvars;
    objective;
    groups;
    constraints =
      [
        Optim.Binlp.linear (lin w 0.0) Optim.Binlp.Le (0.3 *. total);
        Optim.Binlp.product
          (lin [ (3, 1.0); (4, 2.0); (5, 3.0) ] 1.0)
          (lin w 0.0) Optim.Binlp.Le (0.9 *. total);
      ];
  }

(* Schedule-shaped instance: 4 phases x 3 SOS1 groups of 3 options,
   each phase's objective different so switching tempts, a per-phase
   product resource constraint, and the switch terms built the way
   [Formulate.make_schedule] emits them — for every adjacent phase pair
   and the wrap-around, per group, a constant charge, one agreement
   product cancelling it when both phases pick the same member or none,
   and one product per member pair.  Dyadic coefficients again. *)
let schedule_problem () =
  let phases = 4 and groups = 3 and members = 3 in
  let per_phase = groups * members in
  let var p g m = (p * per_phase) + (g * members) + m in
  let objective =
    Array.init (phases * per_phase) (fun j ->
        let p = j / per_phase and k = j mod per_phase in
        -.float_of_int ((((k * 7) + (p * 5 * (k + 1))) mod 13) + 1) /. 4.0)
  in
  let weights p =
    List.init per_phase (fun k ->
        (var p 0 0 + k, float_of_int ((k * 5 mod 11) + 3) /. 2.0))
  in
  let total = List.fold_left (fun acc (_, x) -> acc +. x) 0.0 (weights 0) in
  let coef = 2.0 in
  let switch (p, q) g =
    let pairs = List.init members (fun m -> (var p g m, var q g m)) in
    Optim.Binlp.Lin (lin [] coef)
    :: Optim.Binlp.Prod
         ( lin (List.map (fun (jp, _) -> (jp, coef)) pairs) (-.coef),
           lin (List.map (fun (_, jq) -> (jq, -1.0)) pairs) 1.0 )
    :: List.map
         (fun (jp, jq) ->
           Optim.Binlp.Prod (lin [ (jp, -.coef) ] 0.0, lin [ (jq, 1.0) ] 0.0))
         pairs
  in
  let adjacent =
    List.init (phases - 1) (fun p -> (p, p + 1)) @ [ (phases - 1, 0) ]
  in
  ( {
      Optim.Binlp.nvars = phases * per_phase;
      objective;
      groups =
        List.concat
          (List.init phases (fun p ->
               List.init groups (fun g -> List.init members (var p g))));
      constraints =
        List.init phases (fun p ->
            Optim.Binlp.product
              (lin (List.init members (fun m -> (var p 0 m, float_of_int (m + 1)))) 1.0)
              (lin (weights p) 0.0) Optim.Binlp.Le (0.35 *. total));
    },
    List.concat_map
      (fun pair -> List.concat_map (switch pair) (List.init groups Fun.id))
      adjacent )

type instance = {
  target : string;  (* the history series *)
  problem : Optim.Binlp.problem;
  objective_terms : Optim.Binlp.term list;
  repeats : int;  (* solves per timed run, the fastest counting *)
}

let instances () =
  let schedule, objective_terms = schedule_problem () in
  [
    { target = "solver-perf"; problem = static_problem (); objective_terms = [];
      repeats = 8 };
    { target = "solver-perf-schedule"; problem = schedule; objective_terms;
      repeats = 8 };
  ]

(* The two timed runs: [repeats] solves each, interleaved so that both
   runs sample the same stretch of host speed, and all agreeing on the
   node count.  A run's wall time is its fastest solve's: host noise
   only ever adds time, so the minimum is the steadiest estimate of the
   solver's own speed. *)
let run_pair inst =
  let solve () =
    let t0 = Obs.Clock.now_ns () in
    let o =
      Optim.Binlp.solve ~objective_terms:inst.objective_terms inst.problem
    in
    (o, Int64.to_float (Int64.sub (Obs.Clock.now_ns ()) t0) /. 1e9)
  in
  let first = solve () and second = solve () in
  let nodes = (fst first).Optim.Binlp.nodes in
  let run = [| first; second |] in
  for _ = 2 to inst.repeats do
    Array.iteri
      (fun k (o, best) ->
        let again, wall = solve () in
        if again.Optim.Binlp.nodes <> nodes then
          fail "%s: nondeterministic node count: %d vs %d" inst.target nodes
            again.Optim.Binlp.nodes;
        run.(k) <- (o, Float.min best wall))
      run
  done;
  (run.(0), run.(1))

let entry inst nodes wall_s =
  let wall_s = if wall_s > 0.0 then wall_s else 1e-9 in
  {
    Obs.History.rev = "solver-perf-smoke";
    target = inst.target;
    time = 0.0;
    metrics =
      [
        ("solver_nodes", float_of_int nodes);
        ("binlp_nodes_per_second", float_of_int nodes /. wall_s);
        ("wall_clock_s", wall_s);
      ];
  }

let gate path inst =
  let (o1, w1), (o2, w2) = run_pair inst in
  if o1.Optim.Binlp.status <> Optim.Binlp.Optimal then
    fail "%s: solver hit the node limit on the fixed instance" inst.target;
  if o1.Optim.Binlp.nodes < 50_000 then
    fail "%s: workload too small to measure: %d nodes" inst.target
      o1.Optim.Binlp.nodes;
  Obs.History.append path (entry inst o1.Optim.Binlp.nodes w1);
  if o2.Optim.Binlp.nodes <> o1.Optim.Binlp.nodes then
    fail "%s: nondeterministic node count: %d vs %d" inst.target
      o1.Optim.Binlp.nodes o2.Optim.Binlp.nodes;
  (match (o1.Optim.Binlp.best, o2.Optim.Binlp.best) with
  | Some a, Some b when a.Optim.Binlp.x = b.Optim.Binlp.x -> ()
  | _ -> fail "%s: nondeterministic winner across identical solves" inst.target);
  let history =
    match Obs.History.load path with
    | Ok h -> h
    | Error m -> fail "history did not round-trip: %s" m
  in
  (match Obs.History.check ~history (entry inst o2.Optim.Binlp.nodes w2) with
  | [] -> ()
  | regs ->
      List.iter
        (fun r ->
          Format.eprintf "%s: REGRESSION %a@." inst.target
            Obs.History.pp_regression r)
        regs;
      exit 1);
  Obs.History.append path (entry inst o2.Optim.Binlp.nodes w2);
  Printf.printf "%s: %d nodes, %.2f / %.2f Mnodes/s (run 1/run 2): ok\n"
    inst.target o1.Optim.Binlp.nodes
    (float_of_int o1.Optim.Binlp.nodes /. w1 /. 1e6)
    (float_of_int o2.Optim.Binlp.nodes /. w2 /. 1e6)

let () =
  let path = "solver_perf.jsonl" in
  if Sys.file_exists path then Sys.remove path;
  List.iter (gate path) (instances ())
