(* Sim.Pricer against the full simulator: every priced result must be
   bit-identical to Machine.run, and the DSE engine must see the same
   work counters on either path. *)

let result =
  Alcotest.testable
    (fun ppf (r : Sim.Machine.result) ->
      Fmt.pf ppf "@[<v>checksum %d, cold %d, warm %d@,%a@]"
        r.Sim.Machine.checksum r.Sim.Machine.cold_cycles r.Sim.Machine.warm_cycles
        Sim.Profiler.pp r.Sim.Machine.profile)
    ( = )

let counter name = Obs.Metrics.counter_value (Obs.Metrics.snapshot ()) name

let deltas names f =
  let before = List.map counter names in
  f ();
  List.map2 (fun n b -> (n, counter n - b)) names before

(* Priced and simulated runs of [prog] agree on [config]. *)
let check_config ?(reps = 3) ?(shift_stall = 0) ~what trace prog config =
  Alcotest.check result what
    (Sim.Machine.run ~reps ~shift_stall config prog)
    (Sim.Pricer.price ~reps ~shift_stall trace config)

(* --- every Measure.build configuration of both targets ------------- *)

(* The configurations Measure.build evaluates, lowered to the simulator
   (configuration, shift stall) pair the target's probe runs. *)
let measured (type c) (module T : Dse.Target.S with type config = c)
    (lower : c -> Arch.Config.t * int) =
  T.base
  :: List.concat_map
       (fun (v : T.var) ->
         let r = T.reference_config v in
         [ v.T.apply r; r ])
       T.vars
  |> List.sort_uniq compare |> List.map lower

let targets =
  [
    ("leon2", measured (module Dse.Target_leon2) (fun c -> (c, 0)));
    ( "microblaze",
      measured
        (module Dse.Target_microblaze)
        (fun c ->
          (Dse.Target_microblaze.lower c, Dse.Target_microblaze.shift_stall c)) );
  ]

let test_measure_configs (app : Apps.Registry.t) () =
  let prog = Lazy.force app.Apps.Registry.program in
  let trace = Sim.Pricer.record prog in
  List.iter
    (fun (target, configs) ->
      List.iteri
        (fun k (config, shift_stall) ->
          check_config ~reps:app.Apps.Registry.reps ~shift_stall
            ~what:(Printf.sprintf "%s %s config %d" app.Apps.Registry.name target k)
            trace prog config)
        configs)
    targets

(* One executed epoch serves as both: a default recording prices every
   measured configuration bit-identically to one that executes the
   warm epoch too (an explicit [~reinit]), for every app. *)
let test_one_epoch () =
  List.iter
    (fun (app : Apps.Registry.t) ->
      let prog = Lazy.force app.Apps.Registry.program in
      let one = Sim.Pricer.record prog in
      let both = Sim.Pricer.record ~reinit:Sim.Cpu.reinit prog in
      List.iter
        (fun (target, configs) ->
          List.iteri
            (fun k (config, shift_stall) ->
              let reps = app.Apps.Registry.reps in
              Alcotest.check result
                (Printf.sprintf "%s %s config %d" app.Apps.Registry.name target k)
                (Sim.Pricer.price ~reps ~shift_stall both config)
                (Sim.Pricer.price ~reps ~shift_stall one config))
            configs)
        targets)
    (Apps.Registry.all @ Apps.Extra.all)

(* --- batches ---------------------------------------------------------- *)

(* The inclusion lane against one simulator cache per direct-mapped
   size, on random read/write streams with [dlast] invalidations (as
   the window traps make): every size's miss count agrees.  The
   reference applies the simulator's same-line rule; the lane ignores
   writes and invalidations. *)
type access = Read of int | Write of int | Forget

let inclusion_qtest =
  let open QCheck in
  let addr =
    Gen.(map (fun a -> 4 * a) (oneof [ int_bound 1024; int_bound (1 lsl 16) ]))
  in
  let access =
    Gen.frequency
      [ (6, Gen.map (fun a -> Read a) addr); (3, Gen.map (fun a -> Write a) addr);
        (1, Gen.return Forget) ]
  in
  let print (words, kbs, stream) =
    Printf.sprintf "%d-word lines, %s KB, %d accesses" words
      (String.concat "/" (List.map string_of_int kbs)) (List.length stream)
  in
  Test.make ~count:300 ~name:"inclusion lane = one Sim.Cache per size"
    (make ~print
       Gen.(
         triple
           (oneofl Arch.Config.valid_line_words)
           (list_size (int_range 1 5) (oneofl Arch.Config.valid_way_kbs))
           (list_size (int_bound 3000) access)))
    (fun (line_words, kbs, stream) ->
      let cache way_kb =
        { Arch.Config.ways = 1; way_kb; line_words; replacement = Arch.Config.Random }
      in
      let caches = List.map cache kbs in
      let lane = Sim.Pricer.Inclusion.create ~segments:1 caches in
      List.iter
        (function Read a -> Sim.Pricer.Inclusion.read lane ~segment:0 a | _ -> ())
        stream;
      List.for_all
        (fun c ->
          let sim = Sim.Cache.of_config c ~rng:(Sim.Rng.create ~seed:0xDCE) in
          let shift = (Sim.Cache.geometry c).Sim.Cache.line_shift in
          let last = ref (-1) and misses = ref 0 in
          List.iter
            (function
              | Read a ->
                  if a lsr shift <> !last then begin
                    last := a lsr shift;
                    if not (Sim.Cache.read sim a) then incr misses
                  end
              | Write a ->
                  if a lsr shift <> !last && Sim.Cache.write sim a then
                    last := a lsr shift
              | Forget -> last := -1)
            stream;
          (Sim.Pricer.Inclusion.misses lane c).(0) = !misses)
        caches)

(* [f ()] and the event-stream walks it took. *)
let walked f =
  let before = counter "sim.pricer.walks" in
  let r = f () in
  (r, counter "sim.pricer.walks" - before)

(* Every app, every measured configuration of both targets: primed as
   one batch on one recording, each prices without another walk and as
   it does alone on a recording never primed. *)
let test_batch_single () =
  List.iter
    (fun (app : Apps.Registry.t) ->
      let prog = Lazy.force app.Apps.Registry.program in
      let batch = Sim.Pricer.record prog and single = Sim.Pricer.record prog in
      List.iter
        (fun (target, configs) ->
          Sim.Pricer.prime
            ~runner:{ Sim.Pricer.sequential with jobs = 2 }
            batch (List.map fst configs);
          List.iteri
            (fun k (config, shift_stall) ->
              let what =
                Printf.sprintf "%s %s config %d" app.Apps.Registry.name target k
              in
              let reps = app.Apps.Registry.reps in
              let primed, walks =
                walked (fun () -> Sim.Pricer.price ~reps ~shift_stall batch config)
              in
              Alcotest.(check int) (what ^ ": no walk") 0 walks;
              Alcotest.check result what
                (Sim.Pricer.price ~reps ~shift_stall single config)
                primed)
            configs)
        targets)
    (Apps.Registry.all @ Apps.Extra.all)

(* The probes themselves: whole-run evaluation goes through the pricer,
   and agrees with the simulator-backed [run_app]. *)
let test_probe_wiring () =
  let app = Apps.Extra.qsort in
  List.iter
    (fun (module T : Dse.Target.S) ->
      let seconds, profile = T.probe.Dse.Target.simulate app T.base in
      let r = T.run_app ~config:T.base app in
      Alcotest.(check (float 0.0)) (T.name ^ " seconds") (Sim.Machine.seconds r) seconds;
      Alcotest.(check bool) (T.name ^ " profile") true (profile = r.Sim.Machine.profile))
    Dse.Targets.all

(* --- register windows ---------------------------------------------- *)

let o n = Isa.Reg.o n
let alu ?(cc = false) op rd rs1 op2 = Isa.Insn.Alu { op; cc; rd; rs1; op2 }

(* f(n) = n + f(n - 1), f(0) = 0, called with n = 40: 41 frames deep.
   Each frame allocates 64 bytes by moving %sp outside a save and
   stores n there.  A frame's only load reads one global after its call
   returns, so it is the last data access before the frame's restore
   and the first after the callee's: an underflow fill that evicts the
   global's line must end the same-line fast path.  The entry frame
   then returns twice past itself: the first fill loads the frame
   pointer that places the second frame's save area. *)
let deep_recursion () =
  let a = Isa.Asm.create () in
  let sp = Isa.Reg.sp and l0 = Isa.Reg.l 0 and l1 = Isa.Reg.l 1 in
  let g2 = Isa.Reg.g 2 in
  let global = Isa.Asm.data_words a ~name:"global" [| 7 |] in
  let load rd rs1 off =
    Isa.Insn.Load { width = Isa.Insn.Word; signed = false; rd; rs1; op2 = Isa.Insn.Imm off }
  in
  let store rs rs1 off =
    Isa.Insn.Store { width = Isa.Insn.Word; rs; rs1; op2 = Isa.Insn.Imm off }
  in
  let restore =
    Isa.Insn.Restore { rd = Isa.Reg.g0; rs1 = Isa.Reg.g0; op2 = Isa.Insn.Reg Isa.Reg.g0 }
  in
  Isa.Asm.set32 a global g2;
  Isa.Asm.set32 a 40 (o 0);
  Isa.Asm.call a "f";
  (* frame -1's save area is at %fp = 0: its %i0 (offset 32) becomes
     the checksum, its %i6 (offset 56) frame -2's save area *)
  Isa.Asm.emit a (store (o 0) Isa.Reg.g0 32);
  Isa.Asm.set32 a 0x2000 (o 2);
  Isa.Asm.emit a (store (o 2) Isa.Reg.g0 56);
  Isa.Asm.emit a restore;
  Isa.Asm.emit a restore;
  Isa.Asm.emit a Isa.Insn.Halt;
  Isa.Asm.label a "f";
  Isa.Asm.emit a (Isa.Insn.Save { rd = sp; rs1 = sp; op2 = Isa.Insn.Imm (-96) });
  Isa.Asm.emit a (alu Isa.Insn.Add sp sp (Isa.Insn.Imm (-64)));
  Isa.Asm.emit a (store (Isa.Reg.i 0) sp 64);
  Isa.Asm.mov a (Isa.Insn.Reg (Isa.Reg.i 0)) l0;
  Isa.Asm.emit a (alu ~cc:true Isa.Insn.Sub (o 0) (Isa.Reg.i 0) (Isa.Insn.Imm 1));
  Isa.Asm.bcc a Isa.Insn.Lt "base";
  Isa.Asm.call a "f";
  Isa.Asm.ba a "join";
  Isa.Asm.label a "base";
  Isa.Asm.mov a (Isa.Insn.Imm 0) (o 0);
  Isa.Asm.label a "join";
  Isa.Asm.emit a (load l1 g2 0);
  Isa.Asm.emit a (alu Isa.Insn.Add (Isa.Reg.i 0) (o 0) (Isa.Insn.Reg l0));
  Isa.Asm.emit a (alu Isa.Insn.Add sp sp (Isa.Insn.Imm 64));
  Isa.Asm.emit a restore;
  Isa.Asm.ret a;
  Isa.Asm.finish a ~entry:0

let with_windows n (c : Arch.Config.t) =
  { c with Arch.Config.iu = { c.Arch.Config.iu with Arch.Config.reg_windows = n } }

let small_dcache (c : Arch.Config.t) =
  {
    c with
    Arch.Config.dcache =
      { Arch.Config.ways = 2; way_kb = 1; line_words = 4; replacement = Arch.Config.Lru };
  }

let tiny_dcache (c : Arch.Config.t) =
  {
    c with
    Arch.Config.dcache =
      { Arch.Config.ways = 1; way_kb = 1; line_words = 4; replacement = Arch.Config.Random };
  }

let test_windows () =
  let prog = deep_recursion () in
  let trace = Sim.Pricer.record prog in
  List.iter
    (fun (label, nwin, config) ->
      let config = with_windows nwin config in
      let r = Sim.Machine.run ~reps:3 config prog in
      Alcotest.(check int) "checksum" (40 * 41 / 2) r.Sim.Machine.checksum;
      if nwin < 41 then
        Alcotest.(check bool) "traps" true
          (r.Sim.Machine.profile.Sim.Profiler.window_overflows > 0);
      check_config ~what:label trace prog config)
    [
      ("nwin 8", 8, Arch.Config.base);
      ("nwin 16", 16, Arch.Config.base);
      ("nwin 32", 32, Arch.Config.base);
      ("nwin 8, small dcache", 8, small_dcache Arch.Config.base);
      ("nwin 32, small dcache", 32, small_dcache Arch.Config.base);
      ("nwin 8, 1 KB direct-mapped dcache", 8, tiny_dcache Arch.Config.base);
      ("nwin 16, 1 KB direct-mapped dcache", 16, tiny_dcache Arch.Config.base);
    ]

(* --- replacement policies on both caches --------------------------- *)

let test_replacement () =
  let prog = Lazy.force Apps.Extra.qsort.Apps.Registry.program in
  let trace = Sim.Pricer.record prog in
  let cache replacement line_words = { Arch.Config.ways = 2; way_kb = 1; line_words; replacement } in
  List.iter
    (fun (label, replacement) ->
      List.iter
        (fun line_words ->
          let c = cache replacement line_words in
          let what side = Printf.sprintf "%s %s, %d-word lines" label side line_words in
          check_config ~what:(what "icache") trace prog
            { Arch.Config.base with Arch.Config.icache = c };
          check_config ~what:(what "dcache") trace prog
            { Arch.Config.base with Arch.Config.dcache = c })
        [ 4; 8 ])
    [ ("random", Arch.Config.Random); ("LRR", Arch.Config.Lrr); ("LRU", Arch.Config.Lru) ]

(* A loop over 2.4 KB of straight-line code with inner forward
   branches and a call: more than a 1 KB icache holds, so pricing must
   walk the fetch stream instead of counting first fetches. *)
let long_loop () =
  let a = Isa.Asm.create () in
  Isa.Asm.set32 a 30 (o 1);
  Isa.Asm.label a "top";
  for k = 1 to 300 do
    Isa.Asm.emit a (alu ~cc:true Isa.Insn.And (o 2) (o 0) (Isa.Insn.Imm k));
    let skip = Printf.sprintf "skip%d" k in
    Isa.Asm.bcc a Isa.Insn.Eq skip;
    Isa.Asm.emit a (alu Isa.Insn.Add (o 0) (o 0) (Isa.Insn.Imm k));
    Isa.Asm.label a skip
  done;
  Isa.Asm.call a "g";
  Isa.Asm.emit a (alu ~cc:true Isa.Insn.Sub (o 1) (o 1) (Isa.Insn.Imm 1));
  Isa.Asm.bcc a Isa.Insn.Ne "top";
  Isa.Asm.emit a Isa.Insn.Halt;
  Isa.Asm.label a "g";
  for k = 1 to 64 do
    Isa.Asm.emit a (alu Isa.Insn.Xor (o 0) (o 0) (Isa.Insn.Imm k))
  done;
  Isa.Asm.ret a;
  Isa.Asm.finish a ~entry:0

let test_icache_walk () =
  let prog = long_loop () in
  let trace = Sim.Pricer.record prog in
  List.iter
    (fun (label, ways, replacement) ->
      let config =
        {
          Arch.Config.base with
          Arch.Config.icache =
            { Arch.Config.ways; way_kb = 1; line_words = 4; replacement };
        }
      in
      let replays =
        List.assoc "sim.pricer.replays"
          (deltas [ "sim.pricer.replays" ] (fun () ->
               check_config ~what:label trace prog config))
      in
      Alcotest.(check bool) (label ^ ": walked") true (replays > 0))
    [
      ("1-way", 1, Arch.Config.Random);
      ("2-way random", 2, Arch.Config.Random);
      ("2-way LRR", 2, Arch.Config.Lrr);
      ("2-way LRU", 2, Arch.Config.Lru);
    ]

(* --- segmented runs, phased runs and phase detection ----------------- *)

let phased =
  Alcotest.testable
    (fun ppf (ph : Sim.Machine.phased) ->
      Fmt.pf ppf "@[<v>switch cycles %d@,%a@,phases:@,%a@]"
        ph.Sim.Machine.switch_cycles (Alcotest.pp result) ph.Sim.Machine.result
        (Fmt.list Sim.Profiler.pp) ph.Sim.Machine.phase_profiles)
    ( = )

(* Priced and simulated phased runs of [prog] agree. *)
let check_phased ?(reps = 3) ?(shift_stall = 0) ?keep_caches ?wrap_cycles ~what
    ~switches trace prog config =
  Alcotest.check phased what
    (Sim.Machine.run_phased ~reps ~shift_stall ?keep_caches ?wrap_cycles
       ~switches config prog)
    (Sim.Pricer.price_phased ~reps ~shift_stall ?keep_caches ?wrap_cycles
       ~switches trace config)

(* What Schedule.run measures per phase on a target: the base and every
   schedule-dimension perturbation with its reference, lowered to the
   simulator's (configuration, shift stall), plus the target's phase
   detection. *)
type schedule_target = {
  name : string;
  configs : (Arch.Config.t * int) list;
  detect : Apps.Registry.t -> Sim.Phase.t;
  detect_simulated : ?options:Sim.Phase.options -> Isa.Program.t -> Sim.Phase.t;
}

let schedule_target (type c) (module T : Dse.Target.S with type config = c)
    (lower : c -> Arch.Config.t * int) =
  let configs =
    T.base
    :: List.concat_map
         (fun (v : T.var) ->
           if List.mem v.T.group T.schedule_dims then
             let r = T.reference_config v in
             [ v.T.apply r; r ]
           else [])
         T.vars
    |> List.sort_uniq compare |> List.map lower
  in
  let base, shift_stall = lower T.base in
  {
    name = T.name;
    configs;
    detect = (fun app -> T.detect_phases app);
    detect_simulated =
      (fun ?options prog -> Sim.Phase.detect ?options ~shift_stall base prog);
  }

let schedule_targets =
  [
    schedule_target (module Dse.Target_leon2) (fun c -> (c, 0));
    schedule_target
      (module Dse.Target_microblaze)
      (fun c ->
        (Dse.Target_microblaze.lower c, Dse.Target_microblaze.shift_stall c));
  ]

(* Per-phase measurement: every configuration, cut at the app's
   detected boundaries by identity switches. *)
let test_segmented ?(primed = false) (app : Apps.Registry.t) () =
  let prog = Lazy.force app.Apps.Registry.program in
  let trace = Sim.Pricer.record prog in
  List.iter
    (fun t ->
      let boundaries = Sim.Phase.boundaries (t.detect app) in
      if primed then
        Sim.Pricer.prime
          ~runner:{ Sim.Pricer.sequential with jobs = 2 }
          ~boundaries trace (List.map fst t.configs);
      List.iteri
        (fun k (config, shift_stall) ->
          check_phased ~reps:app.Apps.Registry.reps ~shift_stall
            ~what:
              (Printf.sprintf "%s %s config %d, %d boundaries"
                 app.Apps.Registry.name t.name k (List.length boundaries))
            ~switches:
              (Sim.Machine.identity_switches ~shift_stall ~boundaries config)
            trace prog config)
        t.configs)
    schedule_targets

(* A schedule naming one configuration throughout never switches: it
   prices like the whole run, charges nothing, and its phases add up to
   the whole. *)
let test_one_config_schedule () =
  let prog = Lazy.force Apps.Extra.phases.Apps.Registry.program in
  let trace = Sim.Pricer.record prog in
  List.iter
    (fun t ->
      List.iter
        (fun (config, shift_stall) ->
          let switches =
            List.map
              (fun at ->
                { Sim.Machine.at_insn = at; config; shift_stall; cycles = 4000 })
              [ 1000; 50_000; 50_001 ]
          in
          let ph =
            Sim.Pricer.price_phased ~reps:3 ~shift_stall ~keep_caches:true
              ~wrap_cycles:0 ~switches trace config
          in
          let whole = Sim.Pricer.price ~reps:3 ~shift_stall trace config in
          Alcotest.check result (t.name ^ ": whole run") whole ph.Sim.Machine.result;
          Alcotest.(check int)
            (t.name ^ ": no switch cycles")
            0 ph.Sim.Machine.switch_cycles;
          Alcotest.(check bool)
            (t.name ^ ": phases sum to the whole")
            true
            (List.fold_left Sim.Profiler.add (Sim.Profiler.create ())
               ph.Sim.Machine.phase_profiles
            = whole.Sim.Machine.profile))
        [ List.hd t.configs; List.nth t.configs 3 ])
    schedule_targets

(* Real switches between schedule configurations, with and without
   cache retention, a wrap charge, and boundaries at the first
   instruction and past the halt. *)
let test_phased_switches () =
  let app = Apps.Extra.phases in
  let prog = Lazy.force app.Apps.Registry.program in
  let trace = Sim.Pricer.record prog in
  let total =
    (Sim.Machine.run Arch.Config.base prog).Sim.Machine.profile
      .Sim.Profiler.instructions
  in
  List.iter
    (fun t ->
      let config k = List.nth t.configs (k mod List.length t.configs) in
      let first, stall0 = config 0 in
      List.iter
        (fun (label, ats) ->
          List.iter
            (fun keep_caches ->
              let switches =
                List.mapi
                  (fun k at ->
                    let config, shift_stall = config (k + 1) in
                    {
                      Sim.Machine.at_insn = at;
                      config;
                      shift_stall;
                      cycles = 100 * (k + 1);
                    })
                  ats
              in
              check_phased ~reps:app.Apps.Registry.reps ~shift_stall:stall0 ~keep_caches
                ~wrap_cycles:77
                ~what:(Printf.sprintf "%s %s keep=%b" t.name label keep_caches)
                ~switches trace prog first)
            [ true; false ])
        [
          ("interior", [ total / 3; 2 * total / 3 ]);
          ("at instruction 1", [ 1; total / 2 ]);
          ("past the halt", [ total / 2; total + 5 ]);
          ("1 and past the halt", [ 1; total; total + 1 ]);
        ])
    schedule_targets

let test_window_count_fixed () =
  let prog = Lazy.force Apps.Extra.qsort.Apps.Registry.program in
  let trace = Sim.Pricer.record prog in
  let switches =
    [
      {
        Sim.Machine.at_insn = 100;
        config = with_windows 16 Arch.Config.base;
        shift_stall = 0;
        cycles = 0;
      };
    ]
  in
  List.iter
    (fun (path, run) ->
      match run () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%s: a register-window change was accepted" path)
    [
      ( "Machine.run_phased",
        fun () -> Sim.Machine.run_phased ~switches Arch.Config.base prog );
      ( "Pricer.price_phased",
        fun () -> Sim.Pricer.price_phased ~switches trace Arch.Config.base );
    ]

(* Priced detection equals simulated detection: the same boundaries and
   digest, and the same per-phase profiles. *)
let test_detect () =
  List.iter
    (fun (app : Apps.Registry.t) ->
      let prog = Lazy.force app.Apps.Registry.program in
      List.iter
        (fun t ->
          List.iter
            (fun options ->
              let what =
                Printf.sprintf "%s %s window %d" app.Apps.Registry.name t.name
                  options.Sim.Phase.window
              in
              let simulated = t.detect_simulated ~options prog in
              let priced =
                if options = Sim.Phase.default_options then t.detect app
                else
                  let base, shift_stall = List.hd t.configs in
                  Sim.Pricer.detect ~options ~shift_stall base prog
              in
              Alcotest.(check string) (what ^ ": digest")
                (Sim.Phase.digest simulated) (Sim.Phase.digest priced);
              Alcotest.(check bool) (what ^ ": phases") true (simulated = priced))
            [
              Sim.Phase.default_options;
              { Sim.Phase.default_options with Sim.Phase.window = 700; min_windows = 2 };
            ])
        schedule_targets)
    [ Apps.Extra.phases; Apps.Registry.blastn; Apps.Registry.drr; Apps.Extra.qsort ]

(* Detection counts icache misses from first fetches when the cache
   holds all the code the epoch runs, and walks the fetch stream
   otherwise: both agree with simulated detection.  The replay counter
   says which ran — one dcache replay per detection, plus one icache
   walk when first fetches do not hold.  frag's code (1292 bytes) does
   not fit a 1 KB direct-mapped icache. *)
let test_detect_icache () =
  let small =
    {
      Arch.Config.base with
      Arch.Config.icache =
        {
          Arch.Config.ways = 1;
          way_kb = 1;
          line_words = 4;
          replacement = Arch.Config.Random;
        };
    }
  in
  List.iter
    (fun (what, config, replays) ->
      let prog = Lazy.force Apps.Registry.frag.Apps.Registry.program in
      let simulated = Sim.Phase.detect config prog in
      let before = counter "sim.pricer.replays" in
      let priced = Sim.Pricer.detect config prog in
      let counted = counter "sim.pricer.replays" - before in
      Alcotest.(check string) (what ^ ": digest")
        (Sim.Phase.digest simulated) (Sim.Phase.digest priced);
      Alcotest.(check bool) (what ^ ": phases") true (simulated = priced);
      Alcotest.(check int) (what ^ ": replays") replays counted)
    [
      ("base, first fetches", Arch.Config.base, 1);
      ("1 KB 1-way icache, walked", small, 2);
    ]

(* --- condition-code holds --------------------------------------- *)

(* A conditional branch right after a cc-setting instruction, entered
   30 times from it and once by a jump: only the sequential arrivals
   hold on the condition codes. *)
let branch_target () =
  let a = Isa.Asm.create () in
  Isa.Asm.set32 a 30 (o 1);
  Isa.Asm.ba a "mid";
  Isa.Asm.label a "top";
  Isa.Asm.emit a (alu ~cc:true Isa.Insn.Sub (o 1) (o 1) (Isa.Insn.Imm 1));
  Isa.Asm.label a "mid";
  Isa.Asm.bcc a Isa.Insn.Ne "top";
  Isa.Asm.emit a Isa.Insn.Halt;
  Isa.Asm.finish a ~entry:0

let test_icc_at_branch_target () =
  let prog = branch_target () in
  let trace = Sim.Pricer.record prog in
  let r = Sim.Machine.run Arch.Config.base prog in
  Alcotest.(check int) "holds" 30 r.Sim.Machine.profile.Sim.Profiler.icc_hold_stalls;
  check_config ~what:"whole run" trace prog Arch.Config.base;
  check_phased ~what:"cut at the jump target"
    ~switches:
      (Sim.Machine.identity_switches ~boundaries:[ 3; 4 ] Arch.Config.base)
    trace prog Arch.Config.base

(* A conditional branch to the very next instruction, taken 29 times:
   the tape records the branch decision, not whether the pc moved. *)
let test_branch_to_next () =
  let a = Isa.Asm.create () in
  Isa.Asm.set32 a 30 (o 1);
  Isa.Asm.label a "top";
  Isa.Asm.emit a (alu ~cc:true Isa.Insn.Sub (o 1) (o 1) (Isa.Insn.Imm 1));
  Isa.Asm.bcc a Isa.Insn.Ne "next";
  Isa.Asm.label a "next";
  Isa.Asm.bcc a Isa.Insn.Ne "top";
  Isa.Asm.emit a Isa.Insn.Halt;
  let prog = Isa.Asm.finish a ~entry:0 in
  check_config ~what:"whole run" (Sim.Pricer.record prog) prog Arch.Config.base

(* --- tape encoding ------------------------------------------------- *)

(* Enough events to fill several chunks, with large and negative address
   steps, 32-bit values and branch bits in between. *)
let tape_script =
  List.init 60_000 (fun k ->
      match k mod 6 with
      | 0 -> `Load (k * 4 land 0xFFFFF)
      | 1 -> `Store ((0xFFFFF - (k * 36)) land 0xFFFFC)
      | 2 -> `Save (0xFFFFFFFF - k)
      | 3 -> `Branch (k mod 4 = 3)
      | 4 -> `Jump (k * 7)
      | _ -> `Restore)

let record_script ?like () =
  let rc = Sim.Tape.recorder ?like () in
  List.iter
    (function
      | `Load a -> Sim.Tape.load rc a
      | `Store a -> Sim.Tape.store rc a
      | `Save v -> Sim.Tape.save rc ~sp:v
      | `Branch b -> Sim.Tape.branch rc b
      | `Jump t -> Sim.Tape.jump rc t
      | `Restore -> ignore (Sim.Tape.restore rc))
    tape_script;
  Sim.Tape.finish rc

let test_tape_roundtrip () =
  let tape = record_script () in
  let events = Sim.Tape.reader tape.Sim.Tape.events in
  let taken = Sim.Tape.reader tape.Sim.Tape.taken in
  let targets = Sim.Tape.reader tape.Sim.Tape.targets in
  let addr = ref 0 in
  let event kind =
    let v = Sim.Tape.varint events in
    Alcotest.(check int) "event kind" kind (v land 7);
    v lsr 3
  in
  let access kind =
    addr := !addr + Sim.Tape.unzigzag (event kind);
    !addr
  in
  List.iter
    (function
      | `Load a -> Alcotest.(check int) "load" a (access Sim.Tape.ev_load)
      | `Store a -> Alcotest.(check int) "store" a (access Sim.Tape.ev_store)
      | `Save v -> Alcotest.(check int) "save" v (event Sim.Tape.ev_save)
      | `Branch b -> Alcotest.(check bool) "branch" b (Sim.Tape.bit taken)
      | `Jump t -> Alcotest.(check int) "jump" t (Sim.Tape.varint targets)
      | `Restore -> ignore (event Sim.Tape.ev_restore))
    tape_script;
  Alcotest.(check bool) "events consumed" true (Sim.Tape.at_end events);
  Alcotest.(check bool) "targets consumed" true (Sim.Tape.at_end targets);
  Alcotest.(check bool) "several chunks" true
    (Array.length tape.Sim.Tape.events > 2);
  let again = record_script ~like:tape () in
  Alcotest.(check bool) "repeat recording equal" true (again = tape);
  Array.iteri
    (fun k chunk ->
      Alcotest.(check bool)
        (Printf.sprintf "event chunk %d shared" k)
        true
        (chunk == tape.Sim.Tape.events.(k)))
    again.Sim.Tape.events

(* The recorder executes and records, and nothing else: after a
   recorded run the caches were never probed and no cycle was charged,
   while the retired instructions, taken branches and checksum are the
   simulated cold epoch's — what [Pricer.record] checks its tape
   against. *)
let test_recorder (app : Apps.Registry.t) () =
  let prog = Lazy.force app.Apps.Registry.program in
  let mem_size = Sim.Machine.default_mem_size in
  let cpu = Sim.Cpu.create Arch.Config.base prog ~mem_size in
  Sim.Cpu.record cpu (Sim.Tape.recorder ());
  let p = Sim.Cpu.profile cpu in
  let untouched =
    { Sim.Cache.reads = 0; read_misses = 0; writes = 0; write_misses = 0 }
  in
  let stats = Alcotest.testable (fun ppf _ -> Fmt.string ppf "<stats>") ( = ) in
  Alcotest.check stats "icache stats" untouched (Sim.Cache.stats (Sim.Cpu.icache cpu));
  Alcotest.check stats "dcache stats" untouched (Sim.Cache.stats (Sim.Cpu.dcache cpu));
  Alcotest.(check int) "cycles" 0 p.Sim.Profiler.cycles;
  let cold = Sim.Machine.run ~reps:1 Arch.Config.base prog in
  let q = cold.Sim.Machine.profile in
  Alcotest.(check int) "instructions" q.Sim.Profiler.instructions
    p.Sim.Profiler.instructions;
  Alcotest.(check int) "taken branches" q.Sim.Profiler.taken_branches
    p.Sim.Profiler.taken_branches;
  Alcotest.(check int) "checksum" cold.Sim.Machine.checksum (Sim.Cpu.result cpu)

let recorder_cases =
  List.map
    (fun (app : Apps.Registry.t) ->
      Alcotest.test_case app.Apps.Registry.name `Quick (test_recorder app))
    (Apps.Registry.all @ Apps.Extra.all)

(* Reads at chunk edges go through the in-chunk fast path and its
   chunk-crossing fallback alike.  Chunks hold 64 KiB: one-byte events
   pad the stream so that a varint of every length from 1 to 5 bytes
   starts exactly at a chunk's start, straddles its end at every split,
   or ends exactly at it; the taken bits fill more than a chunk. *)
let chunk = 1 lsl 16

(* [Tape.set_sp v] puts the varint [(v lsl 3) lor ev_set_sp] on the
   event stream: for these values it spans 1 to 5 bytes. *)
let wide = [ (1, 0); (2, 1 lsl 4); (3, 1 lsl 11); (4, 1 lsl 18); (5, 1 lsl 29) ]

let test_tape_edges () =
  List.iter
    (fun (len, v) ->
      for before = 0 to len do
        let what =
          Printf.sprintf "%d-byte varint, %d byte(s) before the edge" len before
        in
        let rc = Sim.Tape.recorder () in
        for _ = 1 to chunk - before do
          Sim.Tape.set_sp rc 0
        done;
        Sim.Tape.set_sp rc v;
        Sim.Tape.set_fp rc 0xFFFFFFFF;
        let tape = Sim.Tape.finish rc in
        Alcotest.(check int) (what ^ ": first chunk full") chunk
          (Bytes.length tape.Sim.Tape.events.(0));
        let r = Sim.Tape.reader tape.Sim.Tape.events in
        for k = 1 to chunk - before do
          if Sim.Tape.varint r <> Sim.Tape.ev_set_sp then
            Alcotest.failf "%s: padding %d" what k
        done;
        Alcotest.(check bool) (what ^ ": more to read") false (Sim.Tape.at_end r);
        Alcotest.(check int) what ((v lsl 3) lor Sim.Tape.ev_set_sp) (Sim.Tape.varint r);
        Alcotest.(check int) (what ^ ": next")
          ((0xFFFFFFFF lsl 3) lor Sim.Tape.ev_set_fp)
          (Sim.Tape.varint r);
        Alcotest.(check bool) (what ^ ": consumed") true (Sim.Tape.at_end r)
      done)
    wide;
  let outcome k = k mod 3 = 0 || k mod 7 = 1 in
  let n = (8 * chunk) + 21 in
  let rc = Sim.Tape.recorder () in
  for k = 0 to n - 1 do
    Sim.Tape.branch rc (outcome k)
  done;
  let tape = Sim.Tape.finish rc in
  Alcotest.(check int) "taken chunks" 2 (Array.length tape.Sim.Tape.taken);
  let r = Sim.Tape.reader tape.Sim.Tape.taken in
  for k = 0 to n - 1 do
    if Sim.Tape.bit r <> outcome k then Alcotest.failf "taken bit %d" k
  done

(* --- failures ------------------------------------------------------ *)

(* %o0 = %g1 + 1: deterministic unless something perturbs %g1. *)
let g1_program () =
  let a = Isa.Asm.create () in
  Isa.Asm.emit a (alu Isa.Insn.Add (o 0) (Isa.Reg.g 1) (Isa.Insn.Imm 1));
  Isa.Asm.emit a Isa.Insn.Halt;
  Isa.Asm.finish a ~entry:0

let test_nondeterministic () =
  let reinit cpu =
    Sim.Cpu.reinit cpu;
    Sim.Cpu.write_reg cpu (Isa.Reg.g 1) 5
  in
  let trace = Sim.Pricer.record ~reinit (g1_program ()) in
  Alcotest.(check int) "one epoch needs no second" 1
    (Sim.Pricer.price ~reps:1 trace Arch.Config.base).Sim.Machine.checksum;
  match Sim.Pricer.price ~reps:2 trace Arch.Config.base with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "diverging epochs priced without Failure"

let spin () =
  let a = Isa.Asm.create () in
  Isa.Asm.label a "top";
  Isa.Asm.ba a "top";
  Isa.Asm.finish a ~entry:0

let test_budget () =
  List.iter
    (fun (path, run) ->
      match run (spin ()) with
      | exception Sim.Cpu.Budget_exhausted n -> Alcotest.(check int) path 1000 n
      | () -> Alcotest.failf "%s: budget not enforced" path)
    [
      ( "Cpu.run",
        fun prog ->
          Sim.Cpu.run ~max_insns:1000
            (Sim.Cpu.create Arch.Config.base prog ~mem_size:(1 lsl 16)) );
      ("Pricer.record", fun prog -> ignore (Sim.Pricer.record ~max_insns:1000 prog));
    ]

(* --- the block-threaded recorder's budget ---------------------------- *)

(* Three basic blocks in a loop, 9 instructions a round:
   [0-2] ends in a call, [5-8] in a return (jmpl), [3-4] in a
   conditional branch; retired so far after each: 3, 7, 9, 12, ... *)
let blocks () =
  let a = Isa.Asm.create () in
  let g = Isa.Reg.g in
  Isa.Asm.label a "top";
  Isa.Asm.emit a (alu Isa.Insn.Add (g 1) (g 1) (Isa.Insn.Imm 1));
  Isa.Asm.emit a (alu Isa.Insn.Add (g 2) (g 2) (Isa.Insn.Reg (g 1)));
  Isa.Asm.call a "leaf";
  Isa.Asm.emit a (alu ~cc:true Isa.Insn.Add (g 3) (g 3) (Isa.Insn.Imm 1));
  Isa.Asm.bcc a Isa.Insn.Ne "top";
  Isa.Asm.label a "leaf";
  Isa.Asm.emit a (alu Isa.Insn.Add (g 4) (g 4) (Isa.Insn.Imm 2));
  Isa.Asm.emit a (alu Isa.Insn.Add (g 5) (g 5) (Isa.Insn.Imm 3));
  Isa.Asm.emit a (alu Isa.Insn.Add (g 6) (g 6) (Isa.Insn.Imm 4));
  Isa.Asm.ret a;
  Isa.Asm.finish a ~entry:0

(* [g1] + 1 into [o0] over [n] straight-line instructions, then halt. *)
let straight n =
  let a = Isa.Asm.create () in
  for _ = 1 to n do
    Isa.Asm.emit a (alu Isa.Insn.Add (o 0) (o 0) (Isa.Insn.Imm 1))
  done;
  Isa.Asm.emit a Isa.Insn.Halt;
  Isa.Asm.finish a ~entry:0

(* What a run leaves: how it ended, the retired instructions, pc and
   the registers it writes. *)
let outcome run prog =
  let cpu = Sim.Cpu.create Arch.Config.base prog ~mem_size:(1 lsl 16) in
  let ended =
    match run cpu with
    | () -> "halted"
    | exception Sim.Cpu.Budget_exhausted n -> Printf.sprintf "budget %d" n
  in
  ( ended,
    ( (Sim.Cpu.profile cpu).Sim.Profiler.instructions,
      ( Sim.Cpu.pc cpu,
        List.map (Sim.Cpu.read_reg cpu)
          (o 0 :: List.init 6 (fun k -> Isa.Reg.g (k + 1))) ) ) )

let outcome_t =
  Alcotest.(pair string (pair int (pair int (list int))))

let test_block_budget () =
  let table =
    [ "nothing", blocks, 0
    ; "first instruction", blocks, 1
    ; "mid-block", blocks, 2
    ; "on a call", blocks, 3
    ; "one before a return", blocks, 6
    ; "on a return", blocks, 7
    ; "before a branch", blocks, 8
    ; "on a branch", blocks, 9
    ; "many rounds, mid-block", blocks, 1_000_000
    ; "halt on the last budgeted", (fun () -> straight 40), 41
    ; "halt just past it", (fun () -> straight 40), 40
    ; "short of a long block", (fun () -> straight 40), 17
    ] [@ocamlformat "disable"]
  in
  List.iter
    (fun (what, prog, max_insns) ->
      let recorded =
        outcome
          (fun cpu -> Sim.Cpu.record ~max_insns cpu (Sim.Tape.recorder ()))
          (prog ())
      in
      Alcotest.check outcome_t what
        (outcome (Sim.Cpu.run ~max_insns) (prog ()))
        recorded)
    table

(* After an execution error the recorder's pc is the first instruction
   of the block that raised, and the count stops before that block. *)
let test_block_error () =
  let a = Isa.Asm.create () in
  Isa.Asm.emit a (alu Isa.Insn.Add (o 0) (o 0) (Isa.Insn.Imm 1));
  Isa.Asm.ba a "next";
  Isa.Asm.label a "next";
  Isa.Asm.emit a (alu Isa.Insn.Add (o 0) (o 0) (Isa.Insn.Imm 1));
  Isa.Asm.emit a
    (Isa.Insn.Div { signed = false; rd = o 1; rs1 = o 0; op2 = Isa.Insn.Imm 0 });
  Isa.Asm.emit a Isa.Insn.Halt;
  let prog = Isa.Asm.finish a ~entry:0 in
  let cpu = Sim.Cpu.create Arch.Config.base prog ~mem_size:(1 lsl 16) in
  match Sim.Cpu.record cpu (Sim.Tape.recorder ()) with
  | () -> Alcotest.fail "division by zero recorded"
  | exception Sim.Cpu.Error _ ->
      Alcotest.(check int) "pc" 2 (Sim.Cpu.pc cpu);
      Alcotest.(check int) "instructions" 2
        (Sim.Cpu.profile cpu).Sim.Profiler.instructions;
      Alcotest.(check int) "written before the raise" 2 (Sim.Cpu.read_reg cpu (o 0))

(* --- engine integration -------------------------------------------- *)

let test_clear_rerecords () =
  let engine = Dse.Engine.default () in
  let app = Apps.Registry.frag in
  let probe = Dse.Target_leon2.probe in
  let eval c = ignore (Dse.Engine.eval_on engine probe app c) in
  let records f = List.assoc "sim.pricer.records" (deltas [ "sim.pricer.records" ] f) in
  Dse.Engine.clear engine;
  Alcotest.(check int) "first evaluation records" 1
    (records (fun () -> eval Arch.Config.base));
  Alcotest.(check int) "later configurations reuse the trace" 0
    (records (fun () -> eval (with_windows 16 Arch.Config.base)));
  Dse.Engine.clear engine;
  Alcotest.(check int) "a cleared engine records again" 1
    (records (fun () -> eval Arch.Config.base))

let test_work_counters () =
  let app = Apps.Registry.frag in
  let configs =
    List.map fst (List.assoc "leon2" targets) |> List.filteri (fun k _ -> k < 12)
  in
  let counters = [ "dse.builds"; "sim.cycles"; "sim.runs"; "sim.instructions" ] in
  let through probe =
    let engine = Dse.Engine.create () in
    deltas counters (fun () ->
        List.iter (fun c -> ignore (Dse.Engine.eval_on engine probe app c)) configs)
  in
  let simulator =
    {
      Dse.Target_leon2.probe with
      Dse.Target.simulate =
        (fun app config ->
          let r = Dse.Target_leon2.run_app ~config app in
          (Sim.Machine.seconds r, r.Sim.Machine.profile));
    }
  in
  Alcotest.(check (list (pair string int)))
    "pricer deltas = simulator deltas" (through simulator)
    (through Dse.Target_leon2.probe)

let () =
  Alcotest.run "pricer"
    [
      ( "bit-identity",
        [
          Alcotest.test_case "frag, every measured config" `Quick
            (test_measure_configs Apps.Registry.frag);
          Alcotest.test_case "qsort, every measured config" `Quick
            (test_measure_configs Apps.Extra.qsort);
          Alcotest.test_case "probe wiring" `Quick test_probe_wiring;
          Alcotest.test_case "deep recursion and %sp writes" `Quick test_windows;
          Alcotest.test_case "replacement policies" `Quick test_replacement;
          Alcotest.test_case "icache walk" `Quick test_icache_walk;
          Alcotest.test_case "icc hold at a branch target" `Quick
            test_icc_at_branch_target;
          Alcotest.test_case "taken branch to the next instruction" `Quick
            test_branch_to_next;
          Alcotest.test_case "one epoch = both epochs, every app" `Quick
            test_one_epoch;
        ] );
      ( "batch",
        [
          QCheck_alcotest.to_alcotest inclusion_qtest;
          Alcotest.test_case "batch = single, every app" `Quick test_batch_single;
          Alcotest.test_case "segmented batch = simulated, phases" `Quick
            (test_segmented ~primed:true Apps.Extra.phases);
        ] );
      ( "phased",
        [
          Alcotest.test_case "segmented phases, every schedule config" `Quick
            (test_segmented Apps.Extra.phases);
          Alcotest.test_case "segmented blastn, every schedule config" `Quick
            (test_segmented Apps.Registry.blastn);
          Alcotest.test_case "1-config schedule = whole run" `Quick
            test_one_config_schedule;
          Alcotest.test_case "real switches and edge boundaries" `Quick
            test_phased_switches;
          Alcotest.test_case "window count is fixed" `Quick test_window_count_fixed;
          Alcotest.test_case "detection = simulated detection" `Quick test_detect;
          Alcotest.test_case "detection, both icache paths" `Quick test_detect_icache;
        ] );
      ( "tape",
        [
          Alcotest.test_case "round trip and sharing" `Quick test_tape_roundtrip;
          Alcotest.test_case "reads at chunk edges" `Quick test_tape_edges;
        ] );
      ("recorder", recorder_cases);
      ( "failures",
        [
          Alcotest.test_case "non-deterministic epochs" `Quick test_nondeterministic;
          Alcotest.test_case "typed budget error" `Quick test_budget;
        ] );
      ( "block driver",
        [
          Alcotest.test_case "budget = per-instruction stepping" `Quick
            test_block_budget;
          Alcotest.test_case "state after an execution error" `Quick
            test_block_error;
        ] );
      ( "engine",
        [
          Alcotest.test_case "clear re-records" `Quick test_clear_rerecords;
          Alcotest.test_case "work counters" `Quick test_work_counters;
        ] );
    ]
