(* Per-layer accounting of a traced pass, folded from
   [Obs.Trace.events]: the spans [Traced] records around target calls
   and stack calls, plus the spans the program already emits
   ([binlp.solve], [pool.batch] and the stack's stage spans). *)

type span = {
  name : string;
  cat : string;
  ts : int64;
  dur : int64;
  tid : int;
  req : int option;
  insns : int;
}

let spans () =
  List.filter_map
    (fun (e : Obs.Trace.event) ->
      if e.Obs.Trace.ph <> Obs.Trace.Complete then None
      else
        let int k =
          match List.assoc_opt k e.Obs.Trace.args with
          | Some (Obs.Json.Int n) -> Some n
          | _ -> None
        in
        Some
          {
            name = e.Obs.Trace.name;
            cat = e.Obs.Trace.cat;
            ts = e.Obs.Trace.ts_ns;
            dur = e.Obs.Trace.dur_ns;
            tid = e.Obs.Trace.tid;
            req = int "req";
            insns = Option.value ~default:0 (int "insns");
          })
    (Obs.Trace.events ())

let seconds ns = Int64.to_float ns *. 1e-9

let is_sim s =
  match s.name with
  | "sim.simulate" | "sim.segmented" | "sim.phased" | "sim.detect" -> true
  | _ -> false

(* The layer a span's self time belongs to.  The simulator's own epoch
   spans (category [sim]) nest inside the sim spans [Traced] records. *)
type layer = Sim | Synth | Bounds | Optim | Pool | Engine | Root

let layer_of s =
  if is_sim s || s.cat = "sim" then Sim
  else
    match s.name with
    | "synth.resources" -> Synth
    | "bounds.static_bounds" -> Bounds
    | "binlp.solve" -> Optim
    | "pool.batch" -> Pool
    | "request" -> Root
    | _ -> Engine

let layer_index = function
  | Sim -> 0
  | Synth -> 1
  | Bounds -> 2
  | Optim -> 3
  | Pool -> 4
  | Engine -> 5
  | Root -> 6

(* Self time per layer on one domain: a span's duration minus the part
   its children cover.  Spans of one domain nest, so after sorting by
   start (longest first on ties) each span's parent is the innermost
   open span that contains it. *)
let self_times spans =
  let acc = Array.make 7 0L in
  let sorted =
    List.sort
      (fun a b ->
        match Int64.compare a.ts b.ts with
        | 0 -> Int64.compare b.dur a.dur
        | c -> c)
      spans
  in
  let stack = ref [] in
  let add l d = acc.(layer_index l) <- Int64.add acc.(layer_index l) d in
  List.iter
    (fun s ->
      let rec pop () =
        match !stack with
        | p :: rest when Int64.add p.ts p.dur <= s.ts ->
            stack := rest;
            pop ()
        | _ -> ()
      in
      pop ();
      add (layer_of s) s.dur;
      (match !stack with
      | p :: _ -> add (layer_of p) (Int64.neg s.dur)
      | [] -> ());
      stack := s :: !stack)
    sorted;
  fun l -> seconds acc.(layer_index l)

type t = {
  sim_calls : int;
  sim_busy_s : float;
  sim_detect_s : float;
  sim_segmented_s : float;
  sim_phased_s : float;
  synth_calls : int;
  synth_busy_s : float;
  bounds_calls : int;
  bounds_busy_s : float;
  solve_s : float;
  engine_self_s : float;
  request_s : float;
  coverage_pct : float;
  stage_measure_s : float;
  stage_solve_s : float;
  stage_verify_s : float;
  insns_by_request : (int, int) Hashtbl.t;
}

let fold ~main_tid =
  let all = spans () in
  let sum p = List.fold_left (fun a s -> if p s then Int64.add a s.dur else a) 0L all in
  let count p = List.length (List.filter p all) in
  let named ns s = List.mem s.name ns in
  let requests = List.filter (fun s -> s.name = "request") all in
  (* Main-domain spans inside some request, for the self-time fold. *)
  let inside s =
    List.exists
      (fun r -> r.ts <= s.ts && Int64.add s.ts s.dur <= Int64.add r.ts r.dur)
      requests
  in
  let self = self_times (List.filter (fun s -> s.tid = main_tid && inside s) all) in
  let request_s = seconds (sum (named [ "request" ])) in
  let insns_by_request = Hashtbl.create 64 in
  List.iter
    (fun s ->
      match s.req with
      | Some r when is_sim s ->
          Hashtbl.replace insns_by_request r
            (s.insns + Option.value ~default:0 (Hashtbl.find_opt insns_by_request r))
      | _ -> ())
    all;
  {
    sim_calls = count is_sim;
    sim_busy_s = seconds (sum is_sim);
    sim_detect_s = seconds (sum (named [ "sim.detect" ]));
    sim_segmented_s = seconds (sum (named [ "sim.segmented" ]));
    sim_phased_s = seconds (sum (named [ "sim.phased" ]));
    synth_calls = count (named [ "synth.resources" ]);
    synth_busy_s = seconds (sum (named [ "synth.resources" ]));
    bounds_calls = count (named [ "bounds.static_bounds" ]);
    bounds_busy_s = seconds (sum (named [ "bounds.static_bounds" ]));
    solve_s = seconds (sum (named [ "binlp.solve" ]));
    engine_self_s = self Engine;
    request_s;
    coverage_pct =
      (if request_s > 0.0 then 100.0 *. (request_s -. self Root) /. request_s
       else 0.0);
    stage_measure_s =
      seconds
        (sum (named [ "measure.build"; "schedule.detect"; "schedule.measure" ]));
    stage_solve_s =
      seconds
        (sum
           (named
              [ "phase.formulate"; "phase.solve"; "schedule.formulate";
                "schedule.solve" ]));
    stage_verify_s = seconds (sum (named [ "phase.verify"; "schedule.verify" ]));
    insns_by_request;
  }
