(* Replay-pricing smoke test (@pricer-perf), three checks on LEON2.

   Whole runs: BLASTN on every configuration Measure.build evaluates,
   once with the full simulator (Machine.run per configuration) and
   once by recording the program and pricing every configuration from
   the recording (Pricer.record + Pricer.price): bit-identical, and
   record + price at least [min_speedup] times faster.

   Segmented runs: the [phases] app cut at its detected boundaries, on
   every configuration Schedule.run measures per phase (the schedule
   dimensions), simulated with Machine.run_phased over identity
   switches and priced with Pricer.record + Pricer.price_phased:
   bit-identical, and at least [min_segmented_speedup] times faster.

   Batches: BLASTN's Measure.build set primed as one batch
   (Pricer.prime, walks balanced for two workers) on a fresh recording,
   then priced per configuration: bit-identical to the per-configuration
   prices above, in exactly [batch_walks] event-stream walks for its
   [batch_geometries] dcache geometries, and none more while pricing. *)

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt
let min_speedup = 5.0
let min_segmented_speedup = 3.0
let batch_geometries = 12
let batch_walks = 2

module T = Dse.Target_leon2

let perturbations vars =
  T.base
  :: List.concat_map
       (fun (v : T.var) ->
         let r = T.reference_config v in
         [ v.T.apply r; r ])
       vars
  |> List.sort_uniq compare

let configs = perturbations T.vars

let schedule_configs =
  perturbations
    (List.filter (fun (v : T.var) -> List.mem v.T.group T.schedule_dims) T.vars)

let timed f =
  let t0 = Obs.Clock.now_ns () in
  let r = f () in
  (r, Int64.to_float (Int64.sub (Obs.Clock.now_ns ()) t0) /. 1e9)

let () =
  let app = Apps.Registry.blastn in
  let prog = Lazy.force app.Apps.Registry.program in
  let reps = app.Apps.Registry.reps in
  let simulated, sim_s =
    timed (fun () -> List.map (fun c -> Sim.Machine.run ~reps c prog) configs)
  in
  let priced, price_s =
    timed (fun () ->
        let trace = Sim.Pricer.record prog in
        List.map (Sim.Pricer.price ~reps trace) configs)
  in
  List.iteri
    (fun k (s, p) ->
      if s <> p then
        fail "pricer-perf: config %d (%s) priced %d cycles, simulated %d" k
          (T.to_string (List.nth configs k))
          p.Sim.Machine.profile.Sim.Profiler.cycles
          s.Sim.Machine.profile.Sim.Profiler.cycles)
    (List.combine simulated priced);
  let speedup = sim_s /. Float.max price_s 1e-9 in
  if speedup < min_speedup then
    fail "pricer-perf: record+price %.3fs vs simulation %.3fs: %.1fx < %.1fx"
      price_s sim_s speedup min_speedup;
  Printf.printf
    "pricer-perf: %d configs bit-identical; simulate %.2fs, record+price \
     %.3fs (%.1fx): ok\n"
    (List.length configs) sim_s price_s speedup;
  let walks f =
    let count () =
      Obs.Metrics.counter_value (Obs.Metrics.snapshot ()) "sim.pricer.walks"
    in
    let before = count () in
    let r = f () in
    (r, count () - before)
  in
  let geometries =
    List.length
      (List.sort_uniq compare (List.map (fun c -> c.Arch.Config.dcache) configs))
  in
  if geometries <> batch_geometries then
    fail "pricer-perf: %d dcache geometries in the measurement set, expected %d"
      geometries batch_geometries;
  let trace = Sim.Pricer.record prog in
  let (), primed =
    walks (fun () ->
        Sim.Pricer.prime
          ~runner:{ Sim.Pricer.sequential with jobs = 2 }
          trace configs)
  in
  let batched, extra =
    walks (fun () -> List.map (Sim.Pricer.price ~reps trace) configs)
  in
  if batched <> priced then
    fail "pricer-perf: batch pricing differs from per-config pricing";
  if primed <> batch_walks || extra <> 0 then
    fail
      "pricer-perf: batch of %d geometries took %d walks (+%d while pricing), \
       expected %d"
      geometries primed extra batch_walks;
  Printf.printf
    "pricer-perf: batch of %d configs (%d dcache geometries) in %d walks, \
     bit-identical: ok\n"
    (List.length configs) geometries primed;
  let app = Apps.Extra.phases in
  let prog = Lazy.force app.Apps.Registry.program in
  let reps = app.Apps.Registry.reps in
  let boundaries = Sim.Phase.boundaries (T.detect_phases app) in
  if boundaries = [] then fail "pricer-perf: no phase boundaries detected on phases";
  let switches c = Sim.Machine.identity_switches ~boundaries c in
  let simulated, sim_s =
    timed (fun () ->
        List.map
          (fun c -> Sim.Machine.run_phased ~reps ~switches:(switches c) c prog)
          schedule_configs)
  in
  let priced, price_s =
    timed (fun () ->
        let trace = Sim.Pricer.record prog in
        List.map
          (fun c -> Sim.Pricer.price_phased ~reps ~switches:(switches c) trace c)
          schedule_configs)
  in
  List.iteri
    (fun k (s, p) ->
      if s <> p then
        fail "pricer-perf: segmented config %d (%s) priced %d cycles, simulated %d" k
          (T.to_string (List.nth schedule_configs k))
          p.Sim.Machine.result.Sim.Machine.profile.Sim.Profiler.cycles
          s.Sim.Machine.result.Sim.Machine.profile.Sim.Profiler.cycles)
    (List.combine simulated priced);
  let speedup = sim_s /. Float.max price_s 1e-9 in
  if speedup < min_segmented_speedup then
    fail "pricer-perf: segmented record+price %.3fs vs simulation %.3fs: %.1fx < %.1fx"
      price_s sim_s speedup min_segmented_speedup;
  Printf.printf
    "pricer-perf: phases at %d boundaries, %d configs bit-identical; simulate \
     %.2fs, record+price %.3fs (%.1fx): ok\n"
    (List.length boundaries) (List.length schedule_configs) sim_s price_s speedup
