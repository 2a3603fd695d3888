(* Bench-history regression-gate self-test (@bench-check): record a
   small clean history, verify a clean re-run passes the gate, verify
   a synthetically perturbed run is detected, and verify the detection
   names the right metrics with the right direction. *)

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let clean_metrics =
  [ ("wall_clock_s", 1.0); ("builds", 100.0); ("engine_hits", 40.0) ]

let entry ~rev metrics =
  { Obs.History.rev; target = "smoke"; time = 0.0; metrics }

let () =
  let path = "history_smoke.jsonl" in
  if Sys.file_exists path then Sys.remove path;
  (* record *)
  Obs.History.append path (entry ~rev:"r0" clean_metrics);
  Obs.History.append path (entry ~rev:"r1" clean_metrics);
  let history =
    match Obs.History.load path with
    | Ok h -> h
    | Error m -> fail "history did not round-trip: %s" m
  in
  if List.length history <> 2 then
    fail "expected 2 entries, loaded %d" (List.length history);
  (* clean re-run passes *)
  (match Obs.History.check ~history (entry ~rev:"r2" clean_metrics) with
  | [] -> ()
  | regs -> fail "clean re-run flagged %d regression(s)" (List.length regs));
  (* perturb: wall clock doubles (above its 1.50x limit), engine hits
     halve (below their 0.95x floor) *)
  let perturbed =
    entry ~rev:"r2"
      [ ("wall_clock_s", 2.0); ("builds", 100.0); ("engine_hits", 20.0) ]
  in
  (* detect *)
  (match Obs.History.check ~history perturbed with
  | [] -> fail "perturbed run passed the gate"
  | regs ->
      let metric_of (r : Obs.History.regression) = r.Obs.History.metric in
      if not (List.mem "wall_clock_s" (List.map metric_of regs)) then
        fail "wall-clock regression not detected";
      if not (List.mem "engine_hits" (List.map metric_of regs)) then
        fail "engine-hits floor regression not detected";
      List.iter
        (fun (r : Obs.History.regression) ->
          Format.printf "detected: %a@." Obs.History.pp_regression r)
        regs);
  print_endline "history smoke: ok"
