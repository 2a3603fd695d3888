(* Trace once, price many.  See pricer.mli for the contract and
   DESIGN.md ("Trace once, price many") for why each replay is exact. *)

let m_records =
  Obs.Metrics.Counter.v "sim.pricer.records"
    ~help:"programs executed and recorded for replay pricing"

let m_replays =
  Obs.Metrics.Counter.v "sim.pricer.replays"
    ~help:"cache replays (icache, or dcache with window traps) computed"

(* A domain-safe memo table with in-flight dedup: the first caller of a
   key computes it while concurrent callers of the same key wait.  A
   failed computation is forgotten, so a later call retries it. *)
module Memo = struct
  type 'v slot = Running | Done of 'v

  type ('k, 'v) t = {
    lock : Mutex.t;
    ready : Condition.t;
    tbl : ('k, 'v slot) Hashtbl.t;
  }

  let create () =
    { lock = Mutex.create (); ready = Condition.create (); tbl = Hashtbl.create 16 }

  let settle t k slot =
    Mutex.protect t.lock (fun () ->
        (match slot with
        | Some v -> Hashtbl.replace t.tbl k (Done v)
        | None -> Hashtbl.remove t.tbl k);
        Condition.broadcast t.ready)

  let find t k compute =
    let cached =
      Mutex.protect t.lock (fun () ->
          let rec claim () =
            match Hashtbl.find_opt t.tbl k with
            | Some (Done v) -> Some v
            | Some Running ->
                Condition.wait t.ready t.lock;
                claim ()
            | None ->
                Hashtbl.replace t.tbl k Running;
                None
          in
          claim ())
    in
    match cached with
    | Some v -> v
    | None -> (
        match compute () with
        | v ->
            settle t k (Some v);
            v
        | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            settle t k None;
            Printexc.raise_with_backtrace e bt)

  let clear t =
    Mutex.protect t.lock (fun () ->
        Hashtbl.reset t.tbl;
        Condition.broadcast t.ready)
end

(* What one epoch did, independent of the configuration: the tape, the
   per-instruction counts it implies, and the dynamic totals the
   handlers count. *)
type epoch = {
  tape : Tape.t;
  counts : int array;  (* executions per static instruction *)
  instructions : int;
  branches : int;
  taken_branches : int;
  mults : int;
  divs : int;
  loads : int;
  stores : int;
  checksum : int;
}

(* Replay counts of one epoch on one dcache configuration and window
   count. *)
type dcounts = { read_misses : int; overflows : int; underflows : int }

type trace = {
  prog : Isa.Program.t;
  stops : int array;
      (* the first control transfer at or after each instruction: a run
         of sequential execution ends there *)
  mem_size : int;
  cold : epoch;
  warm : epoch;  (* physically [cold] when both epochs recorded alike *)
  resident_peak : int;  (* over both epochs, see {!Tape.t} *)
  imemo : (Arch.Config.cache, int * int) Memo.t;
  dmemo : (Arch.Config.cache * int, dcounts * dcounts) Memo.t;
}

let tape_bytes tr =
  Tape.bytes tr.cold.tape
  + if tr.warm == tr.cold then 0 else Tape.bytes tr.warm.tape

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)

let stops code =
  let n = Array.length code in
  let stops = Array.make n (n - 1) in
  for i = n - 1 downto 0 do
    match code.(i) with
    | Isa.Insn.Branch _ | Isa.Insn.Call _ | Isa.Insn.Jmpl _ | Isa.Insn.Halt ->
        stops.(i) <- i
    | _ -> if i + 1 < n then stops.(i) <- stops.(i + 1)
  done;
  stops

(* Calls [f first stop] for every run the epoch executed in sequence,
   from [first] through the control transfer at [stop]: the program
   text fixes each run, the tape's control decisions the next one. *)
let iter_runs (prog : Isa.Program.t) stops (tape : Tape.t) f =
  let code = prog.Isa.Program.code in
  let taken = Tape.reader tape.Tape.taken in
  let targets = Tape.reader tape.Tape.targets in
  let pc = ref prog.Isa.Program.entry in
  let running = ref true in
  while !running do
    let stop = stops.(!pc) in
    f !pc stop;
    match code.(stop) with
    | Isa.Insn.Branch { cond = Isa.Insn.Always; target } | Isa.Insn.Call { target }
      ->
        pc := target
    | Isa.Insn.Branch { target; _ } ->
        pc := if Tape.bit taken then target else stop + 1
    | Isa.Insn.Jmpl _ -> pc := Tape.varint targets
    | _ -> running := false
  done

let counts prog stops tape =
  let n = Array.length prog.Isa.Program.code in
  let diff = Array.make (n + 1) 0 in
  iter_runs prog stops tape (fun first stop ->
      diff.(first) <- diff.(first) + 1;
      diff.(stop + 1) <- diff.(stop + 1) - 1);
  let running = ref 0 in
  Array.init n (fun i ->
      running := !running + diff.(i);
      !running)

let record ?(mem_size = Machine.default_mem_size) ?max_insns
    ?(reinit = Cpu.reinit) prog =
  let code = prog.Isa.Program.code in
  Obs.Span.with_span ~cat:"sim" "sim.record" @@ fun span ->
  Obs.Metrics.Counter.incr m_records;
  let cpu = Cpu.create Arch.Config.base prog ~mem_size in
  let stops = stops code in
  let executed counts pred =
    let n = ref 0 in
    Array.iteri (fun i insn -> if pred insn then n := !n + counts.(i)) code;
    !n
  in
  let epoch ?like () =
    let rc = Tape.recorder ?like () in
    Cpu.record_into cpu rc;
    Cpu.run ?max_insns cpu;
    let tape = Tape.finish rc in
    let counts = counts prog stops tape in
    let p = Cpu.profile cpu in
    if executed counts (fun _ -> true) <> p.Profiler.instructions then
      failwith "Pricer.record: the tape does not reproduce the execution";
    {
      tape;
      counts;
      instructions = p.Profiler.instructions;
      branches = p.Profiler.branches;
      taken_branches = p.Profiler.taken_branches;
      mults = p.Profiler.mults;
      divs = p.Profiler.divs;
      loads = executed counts (function Isa.Insn.Load _ -> true | _ -> false);
      stores = executed counts (function Isa.Insn.Store _ -> true | _ -> false);
      checksum = Cpu.result cpu;
    }
  in
  let cold = epoch () in
  Cpu.reset_profile cpu;
  reinit cpu;
  let warm = epoch ~like:cold.tape () in
  let warm = if warm = cold then cold else warm in
  let tr =
    {
      prog;
      stops;
      mem_size;
      cold;
      warm;
      resident_peak =
        max cold.tape.Tape.resident_peak warm.tape.Tape.resident_peak;
      imemo = Memo.create ();
      dmemo = Memo.create ();
    }
  in
  Obs.Span.add_attr span "instructions" (Obs.Json.Int cold.instructions);
  Obs.Span.add_attr span "tape_bytes" (Obs.Json.Int (tape_bytes tr));
  tr

(* ------------------------------------------------------------------ *)
(* Replays                                                             *)

let log2 n =
  let rec go k = if 1 lsl k >= n then k else go (k + 1) in
  go 0

(* The icache sees only fetches.  The fetch stream is rebuilt from the
   program text and the tape's control decisions: each run of
   instructions up to the next control transfer fetches its lines in
   order, and the transfer's recorded outcome (or [jmpl] target) picks
   the next run.  Calling [Cache.read] only when the configured line
   changes reproduces exactly the simulator's same-line fast path;
   [last] carries into the warm epoch as the simulator's [ilast]
   does. *)
let walk_icache cache tr =
  Obs.Metrics.Counter.incr m_replays;
  let line_log2 = log2 (Cache.line_bytes cache) in
  (* instruction index -> line: 4-byte instructions *)
  let shift = line_log2 - 2 in
  let stats = Cache.stats cache in
  let last = ref (-1) in
  let epoch e =
    let before = stats.Cache.read_misses in
    iter_runs tr.prog tr.stops e.tape (fun first stop ->
        for line = first lsr shift to stop lsr shift do
          if line <> !last then begin
            last := line;
            ignore (Cache.read cache (line lsl line_log2))
          end
        done);
    stats.Cache.read_misses - before
  in
  let cold = epoch tr.cold in
  (cold, epoch tr.warm)

(* When no set ever holds more distinct fetched lines than it has ways,
   no fill needs a victim, so every line misses exactly once, on its
   first fetch, under any replacement policy (and Random never draws).
   The fetched lines follow from the instruction counts alone. *)
let first_fetches cache tr =
  let line_log2 = log2 (Cache.line_bytes cache) in
  let sets = Cache.sets cache in
  let lines = ((4 * Array.length tr.prog.Isa.Program.code) lsr line_log2) + 1 in
  let fetched e =
    let m = Array.make lines false in
    Array.iteri
      (fun i n -> if n > 0 then m.((4 * i) lsr line_log2) <- true)
      e.counts;
    m
  in
  let cold = fetched tr.cold and warm = fetched tr.warm in
  let per_set = Array.make sets 0 in
  let first_cold = ref 0 and first_warm = ref 0 in
  for l = 0 to lines - 1 do
    if cold.(l) then incr first_cold else if warm.(l) then incr first_warm;
    if cold.(l) || warm.(l) then
      per_set.(l land (sets - 1)) <- per_set.(l land (sets - 1)) + 1
  done;
  if Array.for_all (fun n -> n <= Cache.ways cache) per_set then
    Some (!first_cold, !first_warm)
  else None

let replay_icache (c : Arch.Config.cache) tr =
  let cache = Cache.of_config c ~rng:(Rng.create ~seed:0x1CE) in
  match first_fetches cache tr with
  | Some misses -> misses
  | None -> walk_icache cache tr

(* Each frame's [%sp] by call depth: 0 is the entry frame, negative
   depths are frames a program returns past.  Grows in both
   directions. *)
type frames = { mutable sps : int array; mutable origin : int }

let rec slot f d =
  let i = d + f.origin in
  if i >= 0 && i < Array.length f.sps then i
  else begin
    let n = Array.length f.sps in
    let sps = Array.make (2 * n) 0 in
    Array.blit f.sps 0 sps (n / 2) n;
    f.sps <- sps;
    f.origin <- f.origin + (n / 2);
    slot f d
  end

(* The dcache sees loads and stores in program order, with the window
   traps' spill stores and fill loads interleaved where [nwin] puts
   them.  The trap model is the simulator's: [resident] frames occupy
   windows; a save with [nwin - 1] resident spills the oldest frame at
   its [%sp], a restore with one resident fills the caller at its
   [%sp].  Both go through the plain cache entry points in
   [spill_window]/[fill_window] order and invalidate [dlast]. *)
let replay_dcache (c : Arch.Config.cache) ~nwin tr =
  Obs.Metrics.Counter.incr m_replays;
  let cache = Cache.of_config c ~rng:(Rng.create ~seed:0xDCE) in
  let dshift = log2 (Cache.line_bytes cache) in
  let stats = Cache.stats cache in
  let dlast = ref (-1) in
  let spill sp =
    for k = 0 to 7 do
      ignore (Cache.write cache (sp + (4 * k)));
      ignore (Cache.write cache (sp + 32 + (4 * k)))
    done;
    dlast := -1
  in
  let fill sp =
    for k = 0 to 7 do
      ignore (Cache.read cache (sp + (4 * k)));
      ignore (Cache.read cache (sp + 32 + (4 * k)))
    done;
    dlast := -1
  in
  let epoch e =
    let before = stats.Cache.read_misses in
    let frames = { sps = Array.make 64 0; origin = 16 } in
    frames.sps.(slot frames 0) <- tr.mem_size - 128;
    let sp_of d = frames.sps.(slot frames d) in
    let set_sp d v = frames.sps.(slot frames d) <- v in
    let depth = ref 0 and resident = ref 1 in
    let overflows = ref 0 and underflows = ref 0 in
    let r = Tape.reader e.tape.Tape.events in
    let addr = ref 0 in
    while not (Tape.at_end r) do
      let v = Tape.varint r in
      let kind = v land 7 and payload = v lsr 3 in
      if kind = Tape.ev_load then begin
        addr := !addr + Tape.unzigzag payload;
        let line = !addr lsr dshift in
        if line <> !dlast then begin
          dlast := line;
          ignore (Cache.read cache !addr)
        end
      end
      else if kind = Tape.ev_store then begin
        addr := !addr + Tape.unzigzag payload;
        let line = !addr lsr dshift in
        if line <> !dlast && Cache.write cache !addr then dlast := line
      end
      else if kind = Tape.ev_restore then begin
        if !resident = 1 then begin
          incr underflows;
          fill (sp_of (!depth - 1))
        end
        else decr resident;
        decr depth
      end
      else if kind = Tape.ev_save then begin
        if !resident = nwin - 1 then begin
          incr overflows;
          spill (sp_of (!depth - !resident + 1))
        end
        else incr resident;
        incr depth;
        set_sp !depth payload
      end
      else if kind = Tape.ev_set_sp then set_sp !depth payload
      else set_sp (!depth - 1) payload
    done;
    {
      read_misses = stats.Cache.read_misses - before;
      overflows = !overflows;
      underflows = !underflows;
    }
  in
  let cold = epoch tr.cold in
  (cold, epoch tr.warm)

(* ------------------------------------------------------------------ *)
(* Pricing                                                             *)

(* One epoch's profile: static prices times counts from the decoded
   program, dynamic stalls from the replay counts — every charge the
   execute handlers make, summed per class. *)
let profile_of (cm : Cost_model.t) (dec : Decode.insn array) e ~imiss d =
  let counts = e.counts in
  let static = ref 0 and interlocks = ref 0 in
  Array.iteri
    (fun i (di : Decode.insn) ->
      let n = counts.(i) in
      if n > 0 then begin
        static := !static + (n * di.Decode.base_cycles);
        if di.Decode.interlock > 0 then begin
          interlocks := !interlocks + n;
          static := !static + (n * di.Decode.interlock)
        end
      end)
    dec;
  let icc_holds = if cm.Cost_model.icc_stall > 0 then e.tape.Tape.icc_pairs else 0 in
  let regs = Cost_model.window_regs in
  let spill = Cost_model.trap_overhead + (regs * (1 + cm.Cost_model.store_extra)) in
  let fill = Cost_model.trap_overhead + (regs * (1 + cm.Cost_model.load_extra)) in
  let p = Profiler.create () in
  p.Profiler.cycles <-
    !static
    + (e.taken_branches * Cost_model.taken_extra cm)
    + icc_holds
    + (imiss * cm.Cost_model.iline_fill)
    + (d.read_misses * cm.Cost_model.dline_fill)
    + (d.overflows * spill) + (d.underflows * fill);
  p.Profiler.instructions <- e.instructions;
  p.Profiler.icache_misses <- imiss;
  p.Profiler.dcache_reads <- e.loads + (regs * d.underflows);
  p.Profiler.dcache_read_misses <- d.read_misses;
  p.Profiler.dcache_writes <- e.stores + (regs * d.overflows);
  p.Profiler.branches <- e.branches;
  p.Profiler.taken_branches <- e.taken_branches;
  p.Profiler.mults <- e.mults;
  p.Profiler.divs <- e.divs;
  p.Profiler.window_overflows <- d.overflows;
  p.Profiler.window_underflows <- d.underflows;
  p.Profiler.load_interlocks <- !interlocks;
  p.Profiler.icc_hold_stalls <- icc_holds;
  p

let validate who config =
  match Arch.Config.validate config with
  | Ok () -> ()
  | Error msg -> invalid_arg (who ^ ": " ^ msg)

let price ?(reps = 1) ?(shift_stall = 0) tr (config : Arch.Config.t) =
  validate "Pricer.price" config;
  Obs.Span.with_span ~cat:"sim" "sim.price" @@ fun span ->
  let cm = Cost_model.of_arch_config ~shift_stall config in
  let dec = Decode.of_program cm tr.prog in
  let icache = config.Arch.Config.icache and dcache = config.Arch.Config.dcache in
  let nwin = config.Arch.Config.iu.Arch.Config.reg_windows in
  (* every window count that never overflows replays alike *)
  let nwin_class = min nwin (tr.resident_peak + 2) in
  let icold, iwarm = Memo.find tr.imemo icache (fun () -> replay_icache icache tr) in
  let dcold, dwarm =
    Memo.find tr.dmemo (dcache, nwin_class) (fun () ->
        replay_dcache dcache ~nwin tr)
  in
  let cold = profile_of cm dec tr.cold ~imiss:icold dcold in
  let result =
    if reps = 1 then
      {
        Machine.profile = cold;
        cold_cycles = cold.Profiler.cycles;
        warm_cycles = cold.Profiler.cycles;
        checksum = tr.cold.checksum;
      }
    else begin
      if tr.warm.checksum <> tr.cold.checksum then
        failwith
          (Printf.sprintf
             "Pricer.run: non-deterministic application (cold checksum %d, \
              warm %d)"
             tr.cold.checksum tr.warm.checksum);
      let warm = profile_of cm dec tr.warm ~imiss:iwarm dwarm in
      {
        Machine.profile = Profiler.scale_add cold ~warm ~reps;
        cold_cycles = cold.Profiler.cycles;
        warm_cycles = warm.Profiler.cycles;
        checksum = tr.cold.checksum;
      }
    end
  in
  Obs.Span.add_attr span "cycles" (Obs.Json.Int result.Machine.profile.Profiler.cycles);
  result

let store : (int * Isa.Program.t, trace) Memo.t = Memo.create ()

let run ?(mem_size = Machine.default_mem_size) ?reps ?shift_stall config prog =
  validate "Pricer.run" config;
  let tr = Memo.find store (mem_size, prog) (fun () -> record ~mem_size prog) in
  let r = price ?reps ?shift_stall tr config in
  Machine.flush_profile r.Machine.profile;
  r

let clear () = Memo.clear store
