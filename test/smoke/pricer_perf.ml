(* Replay-pricing smoke test (@pricer-perf): evaluate BLASTN on every
   configuration LEON2's Measure.build evaluates, once with the full
   simulator (Machine.run per configuration) and once by recording the
   program and pricing every configuration from the recording
   (Pricer.record + Pricer.price).  Every priced result must be
   bit-identical to its simulation, and record + price must be at least
   [min_speedup] times faster than simulating. *)

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt
let min_speedup = 5.0

module T = Dse.Target_leon2

let configs =
  T.base
  :: List.concat_map
       (fun (v : T.var) ->
         let r = T.reference_config v in
         [ v.T.apply r; r ])
       T.vars
  |> List.sort_uniq compare

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
    (List.length configs) sim_s price_s speedup
