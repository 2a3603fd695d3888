(* The repository benchmark: drives the library the way users do and
   prints one JSON result line.  See README.md for the workloads, the
   metrics and how to run it. *)

open Workloads

(* The metrics this program prints, with their units; BENCHMARK.json
   declares the same lists and the self-test compares them. *)
let end_to_end =
  [
    ("setup_s", "s"); ("wall_s", "s"); ("cpu_s", "s"); ("latency_p50_s", "s");
    ("latency_tail_s", "s"); ("peak_rss_mb", "MB"); ("plan_speedup", "ratio");
    ("plan_objective_gain", "%"); ("base_error_pct", "%");
  ]

let per_layer =
  [
    ("minic.compile_s", "s"); ("minic.code_insns", "count");
    ("sim.calls", "count"); ("sim.busy_s", "s"); ("sim.insns", "count");
    ("sim.minsns_per_s", "Minsn/s"); ("sim.detect_s", "s");
    ("sim.segmented_s", "s"); ("sim.phased_s", "s"); ("synth.calls", "count");
    ("synth.busy_s", "s"); ("bounds.calls", "count"); ("bounds.busy_s", "s");
    ("bounds.pruned", "count"); ("bounds.prune_ratio", "ratio");
    ("engine.misses", "count"); ("engine.hits", "count");
    ("engine.hit_ratio", "ratio"); ("engine.self_s", "s");
    ("pool.tasks", "count"); ("pool.utilization", "ratio");
    ("binlp.solves", "count"); ("binlp.nodes", "count");
    ("binlp.solve_s", "s"); ("binlp.nodes_per_s", "1/s");
    ("stack.measure_s", "s"); ("stack.solve_s", "s"); ("stack.verify_s", "s");
    ("trace.overhead_pct", "%"); ("trace.coverage_pct", "%");
  ]

(* ---- small statistics ---------------------------------------------- *)

let now () = Int64.to_float (Obs.Clock.now_ns ()) *. 1e-9

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let median l =
  match List.sort compare l with
  | [] -> nan
  | s ->
      let n = List.length s in
      if n mod 2 = 1 then List.nth s (n / 2)
      else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.0

(* The cost of a request set repeated in identical passes: each
   request's median time over the passes, summed. *)
let per_request cost passes =
  match passes with
  | [] -> nan
  | first :: _ ->
      List.fold_left ( +. ) 0.0
        (List.mapi (fun i _ -> median (List.map (fun p -> cost (List.nth p i)) passes)) first)

let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)
let geomean l = exp (mean (List.map log l))

(* The highest percentile with at least ten samples beyond it (the
   maximum when there are fewer than eleven samples). *)
let tail l =
  let s = Array.of_list (List.sort compare l) in
  let n = Array.length s in
  let i = if n > 10 then n - 11 else n - 1 in
  (s.(i), 100.0 *. float_of_int (i + 1) /. float_of_int n)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> find ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) find in
  float_of_int kb /. 1024.0

(* ---- host speed ------------------------------------------------------ *)

(* A shared host's speed drifts by tens of percent over seconds to
   minutes, for every process alike.  Before each request the run
   times a fixed integer kernel that shares no code with the program;
   host times are reported scaled to the speed at which that kernel
   takes [reference_s], as measured on an idle 2-core host.  A change
   to the program moves the scaled times; a change of host speed moves
   the kernel too and cancels out. *)
let reference_s = 0.0087

let kernel () =
  let data = Array.make 65536 0 in
  let t0 = now () in
  let x = ref 0x2545F491 in
  for _ = 1 to 2_000_000 do
    x := !x lxor ((!x lsl 13) land 0xFFFFFFFF);
    x := !x lxor (!x lsr 17);
    x := !x lxor ((!x lsl 5) land 0xFFFFFFFF);
    let i = !x land 65535 in
    data.(i) <- data.(i) + !x
  done;
  now () -. t0

(* The kernel on the domains the workload's requests run on — every
   domain of the pool at once, or only the calling one for a
   sequential workload: the mean wall time of one kernel, and the CPU
   time per kernel (a descheduled domain stretches wall time only). *)
type probe = { probe_wall : float; probe_cpu : float }

let speed_probe ~sequential =
  let pool = Dse.Pool.default () in
  let n = if sequential then 1 else Dse.Pool.size pool + 1 in
  let times = Array.make n 0.0 in
  let cpu0 = cpu () in
  if sequential then times.(0) <- kernel ()
  else Dse.Pool.run_batch pool (List.init n (fun i () -> times.(i) <- kernel ()));
  { probe_wall = mean (Array.to_list times); probe_cpu = (cpu () -. cpu0) /. float_of_int n }

(* ---- set-up ---------------------------------------------------------- *)

(* Process start to ready: module initialisation (which parses the
   extra kernels) is paid once; the rest — minic compile of every
   workload app, engine and pool creation — is repeated and its median
   taken.  The first repetition builds the instances the run uses. *)
let setup_reps = 11

let setup apps =
  let init_s = Int64.to_float (Obs.Clock.since_start_ns ()) *. 1e-9 in
  let compile_s = ref [] in
  let once k =
    let t0 = now () in
    List.iter
      (fun (a : Apps.Registry.t) ->
        if k = 0 then ignore (Lazy.force a.Apps.Registry.program)
        else ignore (Minic.Codegen.compile a.Apps.Registry.source))
      apps;
    let t1 = now () in
    if k = 0 then begin
      ignore (Dse.Engine.default ());
      ignore (Dse.Pool.default ())
    end
    else begin
      ignore (Dse.Engine.create ~pool:(Dse.Pool.default ()) ());
      Dse.Pool.shutdown (Dse.Pool.create ~workers:(Dse.Pool.size (Dse.Pool.default ())) ())
    end;
    let t2 = now () in
    compile_s := (t1 -. t0) :: !compile_s;
    t2 -. t0
  in
  let reps = List.init setup_reps once in
  let scale =
    reference_s
    /. median (List.init 3 (fun _ -> (speed_probe ~sequential:true).probe_wall))
  in
  let code_insns =
    List.fold_left
      (fun n (a : Apps.Registry.t) ->
        n + Array.length (Lazy.force a.Apps.Registry.program).Isa.Program.code)
      0 apps
  in
  ((init_s +. median reps) *. scale, median !compile_s *. scale, code_insns)

(* ---- requests -------------------------------------------------------- *)

let counters =
  [
    "dse.builds"; "binlp.nodes"; "binlp.solves"; "dse.bounds.pruned";
    "dse.engine.hits"; "dse.engine.misses"; "dse.pool.tasks";
  ]

let read_counters () =
  let snap = Obs.Metrics.snapshot () in
  List.map (Obs.Metrics.counter_value snap) counters

let counter_deltas c0 c1 = List.map2 (fun n (a, b) -> (n, b - a)) counters (List.combine c0 c1)

type sample = {
  request : request;
  id : int;
  probe : probe;  (* the speed probe just after the request *)
  raw_latency : float;  (* host seconds *)
  latency : float;  (* host seconds scaled to the reference speed *)
  cpu_s : float;
  deltas : (string * int) list;  (* counter deltas over the request *)
  result : (outcome * int, string) result;
      (* the outcome and one epoch's instruction count, or the failure *)
}

let delta s name = List.assoc name s.deltas

(* Executed simulated instructions of an untraced request, from the
   build count: the traced run counts them span by span instead, and
   the answer digest compares the two. *)
let counted_insns s =
  match s.result with
  | Error _ -> 0
  | Ok (o, epoch) ->
      (2 * epoch * delta s "dse.builds")
      + o.detect_insns
      + (2 * epoch * o.phased_runs)

let next_id = ref 0

(* The output checks depend only on the plan and its verified time, so
   a plan a later pass delivers again is not checked again. *)
let checked = Hashtbl.create 64

let check ~checksum request a =
  let key =
    (request.target, request.app.Apps.Registry.name, a.plan, a.verified_seconds,
     a.objective)
  in
  match Hashtbl.find_opt checked key with
  | Some r -> r
  | None ->
      let r = a.check ~checksum in
      Hashtbl.replace checked key r;
      r

let serve_one ~serve ~cold ~sequential ~checksum (request : request) =
  incr next_id;
  let id = !next_id in
  if cold then Dse.Engine.clear (Dse.Engine.default ());
  let c0 = read_counters () in
  let cpu0 = cpu () in
  let t0 = now () in
  let served =
    try
      Ok
        (Traced.with_request id (fun () ->
             Traced.span "request"
               ~attrs:
                 [
                   ("app", Obs.Json.String request.app.Apps.Registry.name);
                   ("target", Obs.Json.String request.target);
                   ("kind", Obs.Json.String (kind_name request.kind));
                 ]
               (fun _ -> serve request)))
    with e -> Error (Printexc.to_string e)
  in
  let t1 = now () in
  let cpu1 = cpu () in
  let c1 = read_counters () in
  let probe = speed_probe ~sequential in
  let result =
    Result.bind served (fun o ->
        match List.map (check ~checksum request) o.answers with
        | [] -> Error "no answer"
        | first :: _ as results -> (
            match List.find_opt Result.is_error results with
            | Some (Error e) -> Error e
            | _ -> Result.map (fun epoch -> (o, epoch)) first))
  in
  {
    request;
    id;
    probe;
    raw_latency = t1 -. t0;
    latency = t1 -. t0;
    cpu_s = cpu1 -. cpu0;
    deltas = counter_deltas c0 c1;
    result;
  }

(* Each request's times are scaled by the mean of the speed probes just
   before and just after it. *)
let run_pass ~workload ~serve_of ~checksum reqs =
  let cold = cold_per_request workload in
  if not cold then Dse.Engine.clear (Dse.Engine.default ());
  let sequential = sequential workload in
  let before = ref (speed_probe ~sequential) in
  List.map
    (fun r ->
      let s =
        serve_one ~serve:(serve_of r.target) ~cold ~sequential
          ~checksum:(checksum r.app) r
      in
      let scale f = 2.0 *. reference_s /. (f !before +. f s.probe) in
      before := s.probe;
      {
        s with
        latency = s.latency *. scale (fun p -> p.probe_wall);
        cpu_s = s.cpu_s *. scale (fun p -> p.probe_cpu);
      })
    reqs

let pass_wall samples = List.fold_left (fun a s -> a +. s.latency) 0.0 samples
let raw_wall samples = List.fold_left (fun a s -> a +. s.raw_latency) 0.0 samples

(* ---- answers --------------------------------------------------------- *)

let answers s = match s.result with Ok (o, _) -> o.answers | Error _ -> []

let digest_line ~insns s =
  match s.result with
  | Error e -> "failed: " ^ e
  | Ok (o, _) ->
      Printf.sprintf "%s %s %s %s %d %d %d" s.request.target
        s.request.app.Apps.Registry.name (kind_name s.request.kind)
        (String.concat " "
           (List.map (fun a -> Printf.sprintf "%s %h" a.plan a.verified_seconds) o.answers))
        (insns s) (delta s "binlp.nodes") (delta s "dse.bounds.pruned")

let digest ~insns samples =
  Digest.to_hex
    (Digest.string (String.concat "\n" (List.map (digest_line ~insns) samples)))

let speedup a = Lazy.force a.base_seconds /. a.verified_seconds

(* The model's error against the paper's hardware measurements: base
   runtimes of the paper's apps on the paper's platform. *)
let base_error_pct samples =
  let paper = List.map (fun a -> a.Apps.Registry.name) Apps.Registry.all in
  List.concat_map
    (fun s ->
      let app = s.request.app in
      if s.request.target = "leon2" && List.mem app.Apps.Registry.name paper then
        List.map
          (fun a ->
            let p = app.Apps.Registry.paper_base_seconds in
            (app.Apps.Registry.name, 100.0 *. Float.abs (Lazy.force a.base_seconds -. p) /. p))
          (answers s)
      else [])
    samples
  |> List.sort_uniq compare |> List.map snd

(* ---- output ---------------------------------------------------------- *)

let json_metrics decl values =
  Obs.Json.Obj
    (List.map
       (fun (name, unit) ->
         let v = List.assoc name values in
         ( name,
           Obs.Json.Obj [ ("value", Obs.Json.Float v); ("unit", Obs.Json.String unit) ]
         ))
       decl)

let print_metrics decl values =
  List.iter
    (fun (name, unit) ->
      Printf.printf "  %-22s %16.6f %s\n" name (List.assoc name values) unit)
    decl

(* ---- one run --------------------------------------------------------- *)

type run = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
}

(* Passes of the request set in a run of [seconds]: the run repeats a
   fixed number of whole passes, sized to [seconds] from the nominal
   pass time on a 2-core host, so every run of a workload does the
   same work.  A traced run spends half its passes untraced and half
   traced. *)
let nominal_pass_s = function
  | "explore" -> 4.3
  | _ -> 15.0

let passes ~workload ~seconds =
  max 1 (int_of_float (Float.round (float_of_int seconds /. nominal_pass_s workload)))

let print_request s =
  Printf.printf "  %-10s %-7s %-18s %9.4fs builds %3d %s\n" s.request.target
    s.request.app.Apps.Registry.name (kind_name s.request.kind) s.latency
    (delta s "dse.builds")
    (match s.result with
    | Error e -> "FAILED: " ^ e
    | Ok (o, _) ->
        String.concat " "
          (List.map
             (fun a ->
               Printf.sprintf "[speedup %.4f objective %s]" (speedup a)
                 (match a.objective with
                 | Some x -> Printf.sprintf "%.2f" x
                 | None -> "-"))
             o.answers))

let run_workload ?limit ~workload ~seed ~seconds ~trace () =
  let reqs = requests workload ~seed in
  let reqs =
    match limit with
    | Some n -> List.filteri (fun i _ -> i < n) reqs
    | None -> reqs
  in
  let apps = apps_of workload in
  let setup_s, compile_s, code_insns = setup apps in
  let checksums = Hashtbl.create 8 in
  List.iter
    (fun a ->
      Hashtbl.replace checksums a.Apps.Registry.name (Apps.Registry.interp_checksum a))
    apps;
  let checksum a = Hashtbl.find checksums a.Apps.Registry.name in
  let plain = servers ~traced:false in
  let total = passes ~workload ~seconds in
  let untraced_n, traced_n =
    if trace then (max 1 (total / 2), max 1 (total - (total / 2))) else (total, 0)
  in
  let untraced =
    List.init untraced_n (fun _ ->
        run_pass ~workload ~serve_of:(fun t -> List.assoc t plain) ~checksum reqs)
  in
  let all_untraced = List.concat untraced in
  let failures = List.filter (fun s -> Result.is_error s.result) in
  let walls = List.map pass_wall untraced in
  let latencies = List.map (fun s -> s.latency) all_untraced in
  let first = List.hd untraced in
  let plans = List.concat_map answers all_untraced in
  let tail_v, tail_pct = tail latencies in
  let e2e =
    [
      ("setup_s", setup_s);
      ("wall_s", per_request (fun s -> s.latency) untraced);
      ("cpu_s", per_request (fun s -> s.cpu_s) untraced);
      ("latency_p50_s", median latencies);
      ("latency_tail_s", tail_v);
      ("peak_rss_mb", peak_rss_mb ());
      ("plan_speedup", geomean (List.map speedup plans));
      ( "plan_objective_gain",
        mean (List.filter_map (fun a -> Option.map Float.neg a.objective) plans) );
      ("base_error_pct", mean (base_error_pct all_untraced));
    ]
  in
  let failed = List.length (failures all_untraced) in
  Printf.printf "workload %s seed %d: %d pass(es) of %d requests\n" workload seed
    untraced_n (List.length first);
  Printf.printf "  pass walls: %s s (host: %s s)\n"
    (String.concat " " (List.map (Printf.sprintf "%.4f") walls))
    (String.concat " " (List.map (fun p -> Printf.sprintf "%.4f" (raw_wall p)) untraced));
  List.iter print_request first;
  List.iter
    (fun s -> if Result.is_error s.result then print_request s)
    (List.concat (List.tl untraced));
  let untraced_digests = List.map (digest ~insns:counted_insns) untraced in
  List.iter (Printf.printf "  answer digest (untraced): %s\n") untraced_digests;
  Printf.printf "  latency: p50 over n=%d; tail is p%.1f of n=%d\n"
    (List.length latencies) tail_pct (List.length latencies);
  Printf.printf "  failed_ratio %.6f failed/attempted (%d/%d)\n"
    (float_of_int failed /. float_of_int (List.length all_untraced))
    failed (List.length all_untraced);
  (match List.filter_map (fun a -> a.model_error_pct) plans with
  | [] -> Printf.printf "  model_error_pct: no static pick in this workload\n"
  | l -> Printf.printf "  model_error_pct %.6f %%\n" (mean l));
  print_metrics end_to_end e2e;
  if not trace then
    {
      correct = failed = 0;
      attempted = List.length all_untraced;
      failed;
      metrics = e2e;
    }
  else begin
    let traced_servers = servers ~traced:true in
    Obs.Trace.clear ();
    Obs.Trace.set_enabled true;
    let c0 = read_counters () in
    let traced =
      List.init traced_n (fun _ ->
          run_pass ~workload
            ~serve_of:(fun t -> List.assoc t traced_servers)
            ~checksum reqs)
    in
    let c1 = read_counters () in
    Obs.Trace.set_enabled false;
    let l = Layers.fold ~main_tid:(Domain.self () :> int) in
    let all_traced = List.concat traced in
    let traced_insns s =
      Option.value ~default:0 (Hashtbl.find_opt l.Layers.insns_by_request s.id)
    in
    let traced_digests = List.map (digest ~insns:traced_insns) traced in
    List.iter (Printf.printf "  answer digest (traced):   %s\n") traced_digests;
    let digests_agree =
      List.for_all (String.equal (List.hd untraced_digests)) (untraced_digests @ traced_digests)
    in
    if not digests_agree then
      print_endline "  answer digests of the untraced and traced runs differ";
    let per = float_of_int traced_n in
    let deltas = counter_deltas c0 c1 in
    let count name = float_of_int (List.assoc name deltas) /. per in
    let insns =
      float_of_int (List.fold_left (fun a s -> a + traced_insns s) 0 all_traced) /. per
    in
    let sim_busy = l.Layers.sim_busy_s /. per in
    let hits = count "dse.engine.hits" and misses = count "dse.engine.misses" in
    let bounds_calls = float_of_int l.Layers.bounds_calls /. per in
    let domains = float_of_int (Dse.Pool.size (Dse.Pool.default ()) + 1) in
    let ratio a b = if b > 0.0 then a /. b else 0.0 in
    let layers =
      [
        ("minic.compile_s", compile_s);
        ("minic.code_insns", float_of_int code_insns);
        ("sim.calls", float_of_int l.Layers.sim_calls /. per);
        ("sim.busy_s", sim_busy);
        ("sim.insns", insns);
        ("sim.minsns_per_s", ratio insns sim_busy /. 1e6);
        ("sim.detect_s", l.Layers.sim_detect_s /. per);
        ("sim.segmented_s", l.Layers.sim_segmented_s /. per);
        ("sim.phased_s", l.Layers.sim_phased_s /. per);
        ("synth.calls", float_of_int l.Layers.synth_calls /. per);
        ("synth.busy_s", l.Layers.synth_busy_s /. per);
        ("bounds.calls", bounds_calls);
        ("bounds.busy_s", l.Layers.bounds_busy_s /. per);
        ("bounds.pruned", count "dse.bounds.pruned");
        ("bounds.prune_ratio", ratio (count "dse.bounds.pruned") bounds_calls);
        ("engine.misses", misses);
        ("engine.hits", hits);
        ("engine.hit_ratio", ratio hits (hits +. misses));
        ("engine.self_s", l.Layers.engine_self_s /. per);
        ("pool.tasks", count "dse.pool.tasks");
        ("pool.utilization", ratio l.Layers.sim_busy_s (l.Layers.request_s *. domains));
        ("binlp.solves", count "binlp.solves");
        ("binlp.nodes", count "binlp.nodes");
        ("binlp.solve_s", l.Layers.solve_s /. per);
        ("binlp.nodes_per_s", ratio (count "binlp.nodes") (l.Layers.solve_s /. per));
        ("stack.measure_s", l.Layers.stage_measure_s /. per);
        ("stack.solve_s", l.Layers.stage_solve_s /. per);
        ("stack.verify_s", l.Layers.stage_verify_s /. per);
        ( "trace.overhead_pct",
          100.0
          *. ((per_request (fun s -> s.latency) traced
              /. per_request (fun s -> s.latency) untraced)
             -. 1.0) );
        ("trace.coverage_pct", l.Layers.coverage_pct);
      ]
    in
    Printf.printf "  traced: %d pass(es)\n" traced_n;
    print_metrics per_layer layers;
    let failed = failed + List.length (failures all_traced) in
    {
      correct = failed = 0 && digests_agree;
      attempted = List.length all_untraced + List.length all_traced;
      failed;
      metrics = layers;
    }
  end

let result_line ~decl r =
  Obs.Json.to_string
    (Obs.Json.Obj
       [
         ("correct", Obs.Json.Bool r.correct);
         ("attempted", Obs.Json.Int r.attempted);
         ("failed", Obs.Json.Int r.failed);
         ("metrics", json_metrics decl r.metrics);
       ])

(* ---- self-test ------------------------------------------------------- *)

(* One request per workload, untraced and traced: every declared metric
   is printed with its unit (and matches BENCHMARK.json when it is in
   the working directory), and every output check fires on a
   deliberately corrupted plan. *)
let self_test () =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  let declared =
    match In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all with
    | exception Sys_error _ -> None
    | text -> (
        match Obs.Json.parse text with
        | Error e -> problem "BENCHMARK.json: %s" e; None
        | Ok j ->
            let list k =
              match Obs.Json.member k j with
              | Some (Obs.Json.List l) ->
                  List.filter_map
                    (fun m ->
                      match (Obs.Json.member "name" m, Obs.Json.member "unit" m) with
                      | Some (Obs.Json.String n), Some (Obs.Json.String u) -> Some (n, u)
                      | _ -> None)
                    l
              | _ -> []
            in
            Some (list "end_to_end", list "per_layer"))
  in
  (match declared with
  | Some (e, p) ->
      if e <> end_to_end then problem "end_to_end differs from BENCHMARK.json";
      if p <> per_layer then problem "per_layer differs from BENCHMARK.json"
  | None -> print_endline "self-test: no BENCHMARK.json here; checking names only");
  List.iter
    (fun workload ->
      List.iter
        (fun (trace, decl) ->
          let r = run_workload ~limit:1 ~workload ~seed:1 ~seconds:1 ~trace () in
          if not r.correct then problem "%s: a correct plan failed its checks" workload;
          let line = result_line ~decl r in
          match Obs.Json.parse line with
          | Error e -> problem "%s: result line is not JSON: %s" workload e
          | Ok j ->
              List.iter
                (fun (name, unit) ->
                  match
                    Option.bind (Obs.Json.member "metrics" j) (Obs.Json.member name)
                  with
                  | Some m when Obs.Json.member "unit" m = Some (Obs.Json.String unit)
                    -> ()
                  | _ -> problem "%s: metric %s [%s] missing" workload name unit)
                decl)
        [ (false, end_to_end); (true, per_layer) ];
      (* Corrupted plans: every check must fire. *)
      let req = List.hd (requests workload ~seed:1) in
      let serve = List.assoc req.target (servers ~traced:false) in
      let o = serve req in
      let checksum = Apps.Registry.interp_checksum req.app in
      List.iter
        (fun (what, r) ->
          match r with
          | Error m -> Printf.printf "self-test: %s: corrupted %s rejected: %s\n" workload what m
          | Ok _ -> problem "%s: corrupted %s plan passed the checks" workload what)
        ((List.hd o.answers).corrupted ~checksum))
    names;
  match !problems with
  | [] -> print_endline "self-test: ok"; 0
  | ps -> List.iter (Printf.printf "self-test: FAIL %s\n") (List.rev ps); 1

(* ---- command line ---------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 30 and trace = ref 0 in
  let self = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME reconfigure | schedule | explore");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S run length");
      ("--trace", Arg.Set_int trace, "0|1 per-layer metrics from a traced run");
      ("--self-test", Arg.Set self, " one request per workload; checks the checks");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  if !self then exit (self_test ());
  if not (List.mem !workload names) then begin
    prerr_endline ("unknown workload " ^ !workload);
    exit 2
  end;
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "--seconds must be >= 1 and --trace 0 or 1";
    exit 2
  end;
  let trace = !trace = 1 in
  let r = run_workload ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace () in
  print_endline (result_line ~decl:(if trace then per_layer else end_to_end) r);
  exit (if r.correct then 0 else 1)
