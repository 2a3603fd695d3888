(* Miss-rate curves from one recorded execution: the "smart sampling"
   direction of the paper's future work, made exact.

   One execution records the configuration-invariant address streams
   ({!Sim.Pricer.record}); each dcache size is then priced by replaying
   the data stream through that cache alone.  We compare every priced
   point against actually simulating the configuration — the two
   columns agree exactly.

   Run with:  dune exec examples/miss_curve.exe [app]               *)

let () =
  let app =
    match Sys.argv with
    | [| _; name |] -> Apps.Registry.find name
    | _ -> Apps.Registry.blastn
  in
  let prog = Lazy.force app.Apps.Registry.program in
  Format.printf "Data-read miss-rate curve for %s@.@." app.Apps.Registry.name;
  let trace = Sim.Pricer.record prog in
  Format.printf "one recording: %d KB of tape@.@."
    (Sim.Pricer.tape_bytes trace / 1024);
  Format.printf "%8s %18s %18s@." "KB" "priced misses" "simulated misses";
  let capacities = [ 1; 2; 4; 8; 16; 32; 64 ] in
  let curve =
    List.map
      (fun kb ->
        (* 4 ways of kb/4 each (LRU) for capacities >= 4 KB; smaller
           ones use 1 way. *)
        let ways, way_kb, repl =
          if kb >= 4 then (4, kb / 4, Arch.Config.Lru)
          else (1, kb, Arch.Config.Random)
        in
        let config =
          { Arch.Config.base with
            dcache = { Arch.Config.ways; way_kb; line_words = 8; replacement = repl } }
        in
        let priced =
          (Sim.Pricer.price trace config).Sim.Machine.profile
            .Sim.Profiler.dcache_read_misses
        in
        let cpu = Sim.Machine.run_once config prog in
        let simulated = (Sim.Cpu.profile cpu).Sim.Profiler.dcache_read_misses in
        Format.printf "%8d %18d %18d@." kb priced simulated;
        (kb, priced))
      capacities
  in
  Format.printf "@.";
  Dse.Plot.xy ~x_label:"dcache KB" ~y_label:"read misses"
    Format.std_formatter
    (Dse.Plot.series_to_floats curve);
  Format.printf
    "@.One recorded run prices the whole sweep; each simulated row would \
     cost the paper a full build + execution.@."
