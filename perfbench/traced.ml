(* Tracing from outside the program.

   [Wrap (T)] is a target module that behaves exactly like [T] but
   records one span around every call into the simulator, the
   resource estimate and the static bounds.  Instantiating
   [Dse.Stack.Make (Wrap (T))] therefore measures the sim, synth and
   bounds layers without touching the library; the untraced benchmark
   uses the plain [Dse.Targets.all] modules instead.

   Every span carries the id of the request being served, including
   spans recorded on pool-worker domains.  Requests run one at a time
   (a single closed-loop client), so one process-wide cell holds the
   current id.  Outside a request (set-up, output checks) the wrapper
   records nothing. *)

let cat = "perfbench"
let current_request = Atomic.make (-1)

let with_request id f =
  Atomic.set current_request id;
  Fun.protect ~finally:(fun () -> Atomic.set current_request (-1)) f

(* [span name f] runs [f add] under a span when a request is current;
   [add] attaches an attribute known only at the end. *)
let span ?(attrs = []) name f =
  let req = Atomic.get current_request in
  if req < 0 then f (fun _ _ -> ())
  else
    Obs.Span.with_span ~cat
      ~attrs:(("req", Obs.Json.Int req) :: attrs)
      name
      (fun h -> f (Obs.Span.add_attr h))

(* Simulated instructions a whole-run call executes: one cold and one
   warm epoch of the same instruction stream ([profile] is scaled to
   [reps] epochs, and the stream does not depend on the
   configuration). *)
let executed_insns (app : Apps.Registry.t) (p : Sim.Profiler.t) =
  2 * p.Sim.Profiler.instructions / app.Apps.Registry.reps

let sim name f =
  span name (fun add ->
      let r, insns = f () in
      add "insns" (Obs.Json.Int insns);
      r)

module Wrap (T : Dse.Target.S) = struct
  include T

  let detect_phases ?options app =
    sim "sim.detect" (fun () ->
        let p = T.detect_phases ?options app in
        (p, p.Sim.Phase.total_insns))

  let run_app_segmented ?config ~boundaries app =
    sim "sim.segmented" (fun () ->
        let ph = T.run_app_segmented ?config ~boundaries app in
        (ph, executed_insns app ph.Sim.Machine.result.Sim.Machine.profile))

  let run_app_phased ~schedule app =
    sim "sim.phased" (fun () ->
        let ph = T.run_app_phased ~schedule app in
        (ph, executed_insns app ph.Sim.Machine.result.Sim.Machine.profile))

  let probe =
    {
      T.probe with
      Dse.Target.simulate =
        (fun app config ->
          sim "sim.simulate" (fun () ->
              let ((_, profile) as r) = T.probe.Dse.Target.simulate app config in
              (r, executed_insns app profile)));
      resources =
        (fun config ->
          span "synth.resources" (fun _ -> T.probe.Dse.Target.resources config));
      static_bounds =
        Option.map
          (fun bounds app config ->
            span "bounds.static_bounds" (fun _ -> bounds app config))
          T.probe.Dse.Target.static_bounds;
    }
end
