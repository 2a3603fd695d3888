(* The requests the benchmark sends, the per-request output checks and
   the answer each request delivers.

   [Server (T)] serves requests through [Dse.Stack.Make (T)]: the
   untraced run instantiates it over the plain [Dse.Targets.all]
   modules (the production code path), the traced run over
   [Traced.Wrap (T)]. *)

type kind =
  | Reconfigure of Dse.Cost.weights list
  | Schedule of Dse.Cost.weights
  | Random_search of Dse.Cost.weights
  | Coordinate_descent of Dse.Cost.weights

type request = { app : Apps.Registry.t; target : string; kind : kind }

let kind_name = function
  | Reconfigure _ -> "reconfigure"
  | Schedule _ -> "schedule"
  | Random_search _ -> "random_search"
  | Coordinate_descent _ -> "coordinate_descent"

(* One delivered plan, in target-independent form. *)
type answer = {
  plan : string;  (** canonical encoding of the delivered plan *)
  verified_seconds : float;  (** simulated, of the delivered plan *)
  base_seconds : float Lazy.t;
      (** simulated, of the target's base configuration; lazy so that
          explore reads it from the engine after the request, not
          inside it *)
  objective : float option;
      (** verified weighted objective of the static or heuristic pick *)
  model_error_pct : float option;
      (** |predicted - verified| / verified runtime of the static pick *)
  check : checksum:int -> (int, string) result;
      (** the output checks; [Ok] carries the instructions of one
          epoch of the app *)
  corrupted : checksum:int -> (string * (int, string) result) list;
      (** the output checks applied to deliberately wrong plans *)
}

(* What one request delivered: a reconfigure request solves several
   weightings of one measured model, the others deliver one plan. *)
type outcome = {
  answers : answer list;
  detect_insns : int;  (** instructions phase detection executed *)
  phased_runs : int;  (** scheduled verification runs (0 or 1) *)
}

let single ?(detect_insns = 0) ?(phased_runs = 0) a =
  { answers = [ a ]; detect_insns; phased_runs }

let explore_draws = 60

(* One span per stack call, carrying the request id. *)
let stack name f = Traced.span ("stack." ^ name) (fun _ -> f ())

module Server (T : Dse.Target.S) = struct
  module S = Dse.Stack.Make (T)

  type plan = {
    configs : T.config list;
    run : unit -> Sim.Machine.result;
    verified : float;
    switch_seconds : float;
        (* reconfiguration time inside [verified]; widens the bounds *)
    objective : float option;  (* checked to be <= 0 when present *)
  }

  let ( let* ) = Result.bind

  let check app ~checksum p =
    let* () =
      List.fold_left
        (fun acc c ->
          let* () = acc in
          match T.validate c with
          | Error m -> Error ("invalid configuration: " ^ m)
          | Ok () when not (T.feasible c) ->
              Error ("configuration does not fit the device: " ^ T.to_string c)
          | Ok () -> Ok ())
        (Ok ()) p.configs
    in
    let r = p.run () in
    let* () =
      if r.Sim.Machine.checksum = checksum then Ok ()
      else
        Error
          (Printf.sprintf "checksum %d, reference interpreter %d"
             r.Sim.Machine.checksum checksum)
    in
    let* () =
      match T.probe.Dse.Target.static_bounds with
      | None -> Ok ()
      | Some bounds ->
          (* A phased plan runs each configuration on part of the
             program: its time lies within the loosest of their
             bounds, plus the switches. *)
          let b = List.map (bounds app) p.configs in
          let lo = List.fold_left (fun m (l, _) -> Float.min m l) infinity b in
          let hi =
            List.fold_left (fun m (_, h) -> Float.max m h) neg_infinity b
            +. p.switch_seconds
          in
          if p.verified >= lo && p.verified <= hi then Ok ()
          else
            Error
              (Printf.sprintf "verified %.9fs outside static bounds [%.9f, %.9f]"
                 p.verified lo hi)
    in
    let* () =
      match p.objective with
      | Some o when o > 0.0 ->
          Error (Printf.sprintf "objective %g is worse than base" o)
      | _ -> Ok ()
    in
    Ok (r.Sim.Machine.profile.Sim.Profiler.instructions / app.Apps.Registry.reps)

  (* A configuration that is invalid or does not fit the device, for
     the self-test. *)
  let unfit_config () =
    let all = T.apply_all T.base T.vars in
    List.find_opt
      (fun c -> not (T.feasible c))
      (all :: List.map (fun v -> v.T.apply T.base) T.vars)

  let corrupted app ~checksum p =
    [
      ("bounds", check app ~checksum { p with verified = -.p.verified });
      ("checksum", check app ~checksum:(checksum + 1) p);
      ("objective", check app ~checksum { p with objective = Some 1.0 });
    ]
    @
    match unfit_config () with
    | None -> []
    | Some c -> [ ("device", check app ~checksum { p with configs = [ c ] }) ]

  let answer app ~plan ~verified ~base_seconds ?objective ?model_error_pct p =
    {
      plan;
      verified_seconds = verified;
      base_seconds;
      objective;
      model_error_pct;
      check = (fun ~checksum -> check app ~checksum p);
      corrupted = (fun ~checksum -> corrupted app ~checksum p);
    }

  let whole_run app config () = T.run_app ~config app

  let model_error (o : S.Optimizer.outcome) =
    let actual = o.S.Optimizer.actual.Dse.Cost.seconds in
    100.0 *. Float.abs (o.S.Optimizer.predicted.S.Optimizer.seconds -. actual)
    /. actual

  let static_objective ~weights (o : S.Optimizer.outcome) =
    Dse.Cost.objective weights
      (S.deltas ~base:o.S.Optimizer.model.S.Measure.base o.S.Optimizer.actual)

  (* The paper's flow: measure the one-at-a-time model once, then
     solve it for each weighting. *)
  let reconfigure ~weights app =
    let model = stack "Measure.build" (fun () -> S.Measure.build app) in
    let solve weights =
      let o =
        stack "Optimizer.run_with_model" (fun () ->
            S.Optimizer.run_with_model ~weights model)
      in
      let config = o.S.Optimizer.config in
      let verified = o.S.Optimizer.actual.Dse.Cost.seconds in
      answer app ~plan:(T.to_string config) ~verified
        ~base_seconds:(Lazy.from_val model.S.Measure.base.Dse.Cost.seconds)
        ~objective:(static_objective ~weights o)
        ~model_error_pct:(model_error o)
        {
          configs = [ config ];
          run = whole_run app config;
          verified;
          switch_seconds = 0.0;
          objective = None;
        }
    in
    { answers = List.map solve weights; detect_insns = 0; phased_runs = 0 }

  let schedule ~weights app =
    let o = stack "Schedule.run" (fun () -> S.Schedule.run ~weights app) in
    let static = o.S.Schedule.static in
    let configs, run, plan, phased_runs =
      match o.S.Schedule.plan with
      | S.Schedule.Static c -> ([ c ], whole_run app c, T.to_string c, 0)
      | S.Schedule.Phased s ->
          ( List.map snd s,
            (fun () -> (T.run_app_phased ~schedule:s app).Sim.Machine.result),
            String.concat ";"
              (List.map (fun (at, c) -> Printf.sprintf "%d:%s" at (T.to_string c)) s),
            1 )
    in
    let verified = o.S.Schedule.scheduled_seconds in
    single ~detect_insns:o.S.Schedule.phases.Sim.Phase.total_insns ~phased_runs
    @@ answer app ~plan ~verified
      ~base_seconds:
        (Lazy.from_val static.S.Optimizer.model.S.Measure.base.Dse.Cost.seconds)
      ~objective:(static_objective ~weights static)
      ~model_error_pct:(model_error static)
      {
        configs;
        run;
        verified;
        switch_seconds =
          float_of_int o.S.Schedule.switch_cycles /. Sim.Machine.clock_hz;
        objective = None;
      }

  let heuristic app (r : S.Heuristic.result) =
    let config = r.S.Heuristic.config in
    let verified = r.S.Heuristic.cost.Dse.Cost.seconds in
    single
    @@ answer app ~plan:(T.to_string config) ~verified
      ~base_seconds:
        (lazy
          (Dse.Engine.eval_on (Dse.Engine.default ()) T.probe app T.base)
            .Dse.Cost.seconds)
      ~objective:r.S.Heuristic.objective
      {
        configs = [ config ];
        run = whole_run app config;
        verified;
        switch_seconds = 0.0;
        objective = Some r.S.Heuristic.objective;
      }

  let serve = function
    | { app; kind = Reconfigure weights; _ } -> reconfigure ~weights app
    | { app; kind = Schedule weights; _ } -> schedule ~weights app
    | { app; kind = Random_search weights; _ } ->
        heuristic app
          (stack "Heuristic.random_search" (fun () ->
               S.Heuristic.random_search ~builds:explore_draws ~weights app))
    | { app; kind = Coordinate_descent weights; _ } ->
        let features = Apps.Features.of_app app in
        heuristic app
          (stack "Heuristic.coordinate_descent" (fun () ->
               S.Heuristic.coordinate_descent ~features ~weights app))
end

(* [serve ~traced] for every registered target, instantiated once. *)
let servers ~traced =
  List.map
    (fun (module T : Dse.Target.S) ->
      let serve =
        if traced then
          let module D = Server (Traced.Wrap (T)) in
          D.serve
        else
          let module D = Server (T) in
          D.serve
      in
      (T.name, serve))
    Dse.Targets.all

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let balanced_weights = Dse.Cost.{ w1 = 1.0; w2 = 1.0 }

(* The request set of one pass.  The seed sets the order; every seed
   asks the same questions, so the simulated answers, and the work,
   do not depend on it.  Every pass of a run repeats the same
   requests, so passes are comparable and the untraced and traced
   passes of one seed deliver the same answers. *)
let requests name ~seed =
  let rng = Random.State.make [| seed |] in
  let targets = Dse.Targets.names in
  let on_targets apps kinds =
    List.concat_map
      (fun app ->
        List.concat_map
          (fun target -> List.map (fun kind -> { app; target; kind }) kinds)
          targets)
      apps
  in
  match name with
  | "reconfigure" ->
      shuffle rng
        (on_targets
           (Apps.Registry.all @ Apps.Extra.all)
           [
             Reconfigure
               Dse.Cost.[ runtime_weights; resource_weights; balanced_weights ];
           ])
  | "schedule" ->
      shuffle rng
        (on_targets
           Apps.[ Extra.phases; Registry.blastn; Registry.drr; Extra.qsort ]
           [
             Schedule Dse.Cost.runtime_weights; Schedule balanced_weights;
           ])
  | "explore" ->
      let weights = Dse.Cost.runtime_weights in
      List.concat_map
        (fun app ->
          [
            { app; target = "leon2"; kind = Random_search weights };
            { app; target = "leon2"; kind = Coordinate_descent weights };
          ])
        (shuffle rng Apps.Registry.[ drr; frag; arith ])
  | _ -> invalid_arg ("unknown workload " ^ name)

let names = [ "reconfigure"; "schedule"; "explore" ]

(* Reconfigure and schedule serve each request on a cold engine, as a
   fresh CLI process would; explore shares one warm engine per pass. *)
let cold_per_request name = name <> "explore"

(* Explore's searches are sequential: its requests run on the calling
   domain only. *)
let sequential name = name = "explore"

let apps_of name =
  List.sort_uniq compare
    (List.map (fun r -> r.app.Apps.Registry.name) (requests name ~seed:0))
  |> List.map (fun n ->
         List.find
           (fun a -> a.Apps.Registry.name = n)
           (Apps.Registry.all @ Apps.Extra.all))
