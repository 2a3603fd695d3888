(* Trace once, price many.  See pricer.mli for the contract and
   DESIGN.md ("Trace once, price many") for why each replay is exact. *)

let m_records =
  Obs.Metrics.Counter.v "sim.pricer.records"
    ~help:"programs executed and recorded for replay pricing"

let m_replays =
  Obs.Metrics.Counter.v "sim.pricer.replays"
    ~help:"cache configurations replayed (icache, or dcache with window traps)"

let m_walks =
  Obs.Metrics.Counter.v "sim.pricer.walks"
    ~help:"event-stream walks, each driving one or more dcache replays"

let m_recorded_insns =
  Obs.Metrics.Counter.v "sim.pricer.recorded_insns"
    ~help:"instructions the recorder executed"

let m_record_seconds =
  Obs.Metrics.Histogram.v "sim.pricer.record_seconds"
    ~help:"wall time of each recording"

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

  (* Claims [k] for the caller, who must then settle it, when no one
     has computed or is computing it. *)
  let claim t k =
    Mutex.protect t.lock (fun () ->
        if Hashtbl.mem t.tbl k then false
        else begin
          Hashtbl.replace t.tbl k Running;
          true
        end)

  (* Gives up the caller's claim on [k] if it is still unsettled. *)
  let abandon t k =
    Mutex.protect t.lock (fun () ->
        if Hashtbl.find_opt t.tbl k = Some Running then begin
          Hashtbl.remove t.tbl k;
          Condition.broadcast t.ready
        end)

  let find t k compute =
    let cached =
      Mutex.protect t.lock (fun () ->
          let rec wait () =
            match Hashtbl.find_opt t.tbl k with
            | Some (Done v) -> Some v
            | Some Running ->
                Condition.wait t.ready t.lock;
                wait ()
            | None ->
                Hashtbl.replace t.tbl k Running;
                None
          in
          wait ())
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

(* What one segment of an epoch executed, independent of the
   configuration. *)
type seg = {
  counts : int array;  (* executions per static instruction *)
  taken : int;  (* taken branches *)
  icc_pairs : int;
      (* conditional branches executed directly after a cc-setting
         instruction *)
  events : int;  (* load, store, save and restore events on the tape *)
}

type epoch = { tape : Tape.t; whole : seg; instructions : int; checksum : int }

(* What the program text fixes. *)
type text = {
  prog : Isa.Program.t;
  stops : int array;
      (* the first control transfer at or after each instruction: a run
         of sequential execution ends there *)
  pairable : bool array;
      (* a conditional branch whose textual predecessor sets the
         condition codes *)
}

(* Replay counts of one segment on one dcache configuration and window
   count. *)
type dcounts = { read_misses : int; overflows : int; underflows : int }

(* A cache plan: entry [g] is the configuration of a cache that starts
   cold at segment [g], [None] when segment [g] keeps the cache of
   segment [g - 1].  Entry 0 is never [None]. *)
type plan = Arch.Config.cache option array

(* A dcache replay's memo key: the cache plan, the window class and the
   boundaries. *)
type dkey = plan * int * int array

type trace = {
  text : text;
  mem_size : int;
  cold : epoch;
  warm : epoch;  (* physically [cold] when both epochs recorded alike *)
  resident_peak : int;  (* over both epochs, see {!Tape.t} *)
  splits : (int array, seg array) Memo.t;
  imemo : (plan * int array, int array) Memo.t;
  dmemo : (dkey, dcounts array) Memo.t;
}

let tape_bytes tr =
  Tape.bytes tr.cold.tape
  + if tr.warm == tr.cold then 0 else Tape.bytes tr.warm.tape

(* ------------------------------------------------------------------ *)
(* Walking an epoch                                                    *)

let text_of (prog : Isa.Program.t) =
  let code = prog.Isa.Program.code in
  let n = Array.length code in
  let stops = Array.make n (n - 1) in
  for i = n - 1 downto 0 do
    match code.(i) with
    | Isa.Insn.Branch _ | Isa.Insn.Call _ | Isa.Insn.Jmpl _ | Isa.Insn.Halt ->
        stops.(i) <- i
    | _ -> if i + 1 < n then stops.(i) <- stops.(i + 1)
  done;
  let pairable =
    Array.mapi
      (fun i insn ->
        i > 0 && Isa.Insn.uses_icc insn && Isa.Insn.sets_icc code.(i - 1))
      code
  in
  { prog; stops; pairable }

(* Walks the runs of sequential execution of one epoch — the program
   text fixes each run, the tape's control decisions the next one — cut
   at the strictly increasing retired-instruction [bounds].  Calls
   [piece s first last] for each stretch of a run inside segment [s]
   (the number of boundaries passed), and [branch s first stop taken]
   for each branch [stop] closing a run entered at [first]. *)
let iter_pieces text (tape : Tape.t) bounds ~piece ~branch =
  let code = text.prog.Isa.Program.code in
  let stops = text.stops in
  let taken = Tape.reader tape.Tape.taken in
  let targets = Tape.reader tape.Tape.targets in
  let nb = Array.length bounds in
  let seg = ref 0 and retired = ref 0 in
  let pc = ref text.prog.Isa.Program.entry in
  let running = ref true in
  while !running do
    let first = !pc in
    let stop = stops.(first) in
    let from = ref first in
    (* a boundary inside the run cuts it: instructions before it belong
       to the earlier segment *)
    while !seg < nb && !retired + stop - !from >= bounds.(!seg) do
      let cut = !from + bounds.(!seg) - !retired in
      if cut > !from then piece !seg !from (cut - 1);
      retired := bounds.(!seg);
      from := cut;
      incr seg
    done;
    piece !seg !from stop;
    retired := !retired + stop - !from + 1;
    match code.(stop) with
    | Isa.Insn.Branch { cond = Isa.Insn.Always; target } ->
        branch !seg first stop true;
        pc := target
    | Isa.Insn.Branch { target; _ } ->
        let t = Tape.bit taken in
        branch !seg first stop t;
        pc := if t then target else stop + 1
    | Isa.Insn.Call { target } -> pc := target
    | Isa.Insn.Jmpl _ -> pc := Tape.varint targets
    | _ -> running := false
  done

(* The segments of one epoch cut at [bounds]: calls [emit s seg] for
   each of the [Array.length bounds + 1] segments in order.  A
   conditional branch pairs with its predecessor only when the run
   reached it sequentially: every control transfer clears the
   condition-code hold, and a reconfiguration does not. *)
let segments text tape bounds emit =
  let code = text.prog.Isa.Program.code in
  let n = Array.length code in
  let diff = Array.make (n + 1) 0 in
  let taken = ref 0 and pairs = ref 0 and cur = ref 0 in
  let close () =
    let running = ref 0 and events = ref 0 in
    let counts =
      Array.init n (fun i ->
          running := !running + diff.(i);
          (match code.(i) with
          | Isa.Insn.Load _ | Isa.Insn.Store _ | Isa.Insn.Save _
          | Isa.Insn.Restore _ ->
              events := !events + !running
          | _ -> ());
          !running)
    in
    emit !cur { counts; taken = !taken; icc_pairs = !pairs; events = !events };
    Array.fill diff 0 (n + 1) 0;
    taken := 0;
    pairs := 0;
    incr cur
  in
  iter_pieces text tape bounds
    ~piece:(fun s first last ->
      while !cur < s do
        close ()
      done;
      diff.(first) <- diff.(first) + 1;
      diff.(last + 1) <- diff.(last + 1) - 1)
    ~branch:(fun _ first stop t ->
      if t then incr taken;
      if stop > first && text.pairable.(stop) then incr pairs);
  while !cur <= Array.length bounds do
    close ()
  done

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)

let record ?(mem_size = Machine.default_mem_size) ?max_insns ?reinit prog =
  Obs.Span.with_span ~cat:"sim" "sim.record" @@ fun span ->
  Obs.Metrics.Counter.incr m_records;
  let t0 = Obs.Clock.now_ns () in
  let cpu = Cpu.create Arch.Config.base prog ~mem_size in
  let text = text_of prog in
  let epoch ?like () =
    let rc = Tape.recorder ?like () in
    Cpu.record ?max_insns cpu rc;
    let tape = Tape.finish rc in
    let p = Cpu.profile cpu in
    Obs.Metrics.Counter.incr ~by:p.Profiler.instructions m_recorded_insns;
    let whole = ref None in
    segments text tape [||] (fun _ s -> whole := Some s);
    let whole = Option.get !whole in
    if
      Array.fold_left ( + ) 0 whole.counts <> p.Profiler.instructions
      || whole.taken <> p.Profiler.taken_branches
    then failwith "Pricer.record: the tape does not reproduce the execution";
    {
      tape;
      whole;
      instructions = p.Profiler.instructions;
      checksum = Cpu.result cpu;
    }
  in
  let cold = epoch () in
  (* [Cpu.reinit] restores the state [Cpu.create] left and keeps only
     the caches, which the tape does not see: the warm epoch would
     execute exactly as the cold one did.  Only a caller's own [reinit]
     can make it differ. *)
  let warm =
    match reinit with
    | None -> cold
    | Some reinit ->
        Cpu.reset_profile cpu;
        reinit cpu;
        let warm = epoch ~like:cold.tape () in
        if warm = cold then cold else warm
  in
  let tr =
    {
      text;
      mem_size;
      cold;
      warm;
      resident_peak =
        max cold.tape.Tape.resident_peak warm.tape.Tape.resident_peak;
      splits = Memo.create ();
      imemo = Memo.create ();
      dmemo = Memo.create ();
    }
  in
  Obs.Metrics.Histogram.observe m_record_seconds
    (Int64.to_float (Int64.sub (Obs.Clock.now_ns ()) t0) /. 1e9);
  Obs.Span.add_attr span "instructions" (Obs.Json.Int cold.instructions);
  Obs.Span.add_attr span "tape_bytes" (Obs.Json.Int (tape_bytes tr));
  tr

(* Both epochs cut at [bounds]: the cold epoch's segments, then the
   warm epoch's. *)
let split tr bounds =
  if bounds = [||] then [| tr.cold.whole; tr.warm.whole |]
  else
    Memo.find tr.splits bounds (fun () ->
        let cut e =
          let out = Array.make (Array.length bounds + 1) e.whole in
          segments tr.text e.tape bounds (fun s seg -> out.(s) <- seg);
          out
        in
        let cold = cut tr.cold in
        Array.append cold (if tr.warm == tr.cold then cold else cut tr.warm))

(* The load, store, save and restore events before each of [nb]
   boundaries, from [events s], segment [s]'s count of them: each such
   instruction puts exactly one event on the tape, so counting them
   aligns the event stream with the instruction boundaries.  The
   [%sp]/[%fp] events between them touch no cache and no trap counter,
   so only their order matters. *)
let event_cuts nb events =
  let acc = ref 0 in
  Array.init nb (fun s ->
      acc := !acc + events s;
      !acc)

(* ------------------------------------------------------------------ *)
(* Icache replays                                                      *)

(* The segment after [g] where the plan starts a new cache. *)
let chain_end (plan : plan) g =
  let rec go k = if k < Array.length plan && plan.(k) = None then go (k + 1) else k in
  go (g + 1)

(* When no set of a cache ever holds more distinct fetched lines than it
   has ways, no fill needs a victim, so every line misses exactly once,
   on its first fetch, under any replacement policy (and Random never
   draws).  The fetched lines follow from the instruction counts alone.
   [first_fetch c] counts, for a cold cache [c], the misses of each
   segment fed to it in order; [fits ()] says whether that has held so
   far. *)
let first_fetch text (c : Arch.Config.cache) =
  let n = Array.length text.prog.Isa.Program.code in
  let geo = Cache.geometry c in
  let line_shift = geo.Cache.line_shift and sets = geo.Cache.sets in
  let fetched = Array.make (((4 * n) lsr line_shift) + 1) false in
  let per_set = Array.make sets 0 in
  let fits = ref true in
  let count (s : seg) =
    let misses = ref 0 in
    Array.iteri
      (fun i c ->
        let l = (4 * i) lsr line_shift in
        if c > 0 && not fetched.(l) then begin
          fetched.(l) <- true;
          incr misses;
          let set = l land (sets - 1) in
          per_set.(set) <- per_set.(set) + 1;
          if per_set.(set) > geo.Cache.ways then fits := false
        end)
      s.counts;
    !misses
  in
  (count, fun () -> !fits)

(* Misses per segment when first fetches hold for every cache of the
   plan. *)
let first_fetches text (plan : plan) (segs : seg array) =
  let misses = Array.make (Array.length plan) 0 in
  let rec chain g =
    g >= Array.length plan
    ||
    let count, fits = first_fetch text (Option.get plan.(g)) in
    let stop = chain_end plan g in
    for k = g to stop - 1 do
      misses.(k) <- count segs.(k)
    done;
    fits () && chain stop
  in
  if chain 0 then Some misses else None

(* The icache sees only fetches.  Each piece of a run fetches its lines
   in order; calling [Cache.read] only when the configured line changes
   reproduces exactly the simulator's same-line fast path, and [last]
   carries into the warm epoch as the simulator's [ilast] does.  A cache
   the plan restarts begins with no last line.  [tapes] are the walked
   epochs in order, each cut at [bounds]. *)
let walk_icache text tapes ~bounds (plan : plan) =
  Obs.Metrics.Counter.incr m_replays;
  let misses = Array.make (Array.length plan) 0 in
  let per_epoch = Array.length bounds + 1 in
  let g = ref 0 in
  let fresh c = Cache.of_config c ~rng:(Rng.create ~seed:0x1CE) in
  let cache = ref (fresh (Option.get plan.(0))) in
  let line_shift = ref (Cache.geometry (Option.get plan.(0))).Cache.line_shift in
  let last = ref (-1) in
  let enter k =
    while !g < k do
      incr g;
      match plan.(!g) with
      | Some c ->
          cache := fresh c;
          line_shift := (Cache.geometry c).Cache.line_shift;
          last := -1
      | None -> ()
    done
  in
  List.iteri
    (fun ep tape ->
      let base = ep * per_epoch in
      enter base;
      iter_pieces text tape bounds
        ~piece:(fun s first stop ->
          let k = base + s in
          if k <> !g then enter k;
          let c = !cache and ll = !line_shift in
          (* instruction index -> line: 4-byte instructions *)
          let shift = ll - 2 in
          for line = first lsr shift to stop lsr shift do
            if line <> !last then begin
              last := line;
              if not (Cache.read c (line lsl ll)) then
                misses.(k) <- misses.(k) + 1
            end
          done)
        ~branch:(fun _ _ _ _ -> ());
      enter (base + per_epoch - 1))
    tapes;
  misses

(* ------------------------------------------------------------------ *)
(* The dcache walk                                                     *)

(* Direct-mapped caches of one line size, driven as one inclusion lane.
   A direct-mapped cache changes state only when a read misses: a read
   hit has no victim order to touch, and under write-no-allocate a write
   fills nothing.  So each set holds the most recently read line the set
   admits, and when one cache has [S] sets and another [2S], every line
   the smaller holds the larger holds too.  A read probes the caches
   smallest first and stops at the first hit; writes are ignored.
   [last] is a line every cache holds: reading it again changes
   nothing. *)
module Inclusion = struct
  type t = {
    shift : int;
    sets : int array;  (* per cache, smallest first *)
    lines : int array array;  (* per cache, the line each set holds, or -1 *)
    misses : int array array;  (* per cache, read misses per segment *)
    mutable last : int;
  }

  let create ~segments (caches : Arch.Config.cache list) =
    let geos = List.map Cache.geometry caches in
    let shift =
      match geos with
      | g :: _ -> g.Cache.line_shift
      | [] -> invalid_arg "Pricer.Inclusion: no caches"
    in
    if List.exists (fun g -> g.Cache.ways <> 1 || g.Cache.line_shift <> shift) geos
    then invalid_arg "Pricer.Inclusion: caches must be direct-mapped, one line size";
    let sets =
      Array.of_list (List.sort_uniq compare (List.map (fun g -> g.Cache.sets) geos))
    in
    {
      shift;
      sets;
      lines = Array.map (fun n -> Array.make n (-1)) sets;
      misses = Array.map (fun _ -> Array.make segments 0) sets;
      last = -1;
    }

  let misses t (c : Arch.Config.cache) =
    let g = Cache.geometry c in
    match Array.find_index (( = ) g.Cache.sets) t.sets with
    | Some i when g.Cache.ways = 1 && g.Cache.line_shift = t.shift -> t.misses.(i)
    | _ -> invalid_arg "Pricer.Inclusion.misses: not in the lane"

  let read t ~segment addr =
    let line = addr lsr t.shift in
    if line <> t.last then begin
      t.last <- line;
      let n = Array.length t.sets in
      let i = ref 0 in
      while !i < n do
        let lines = t.lines.(!i) in
        let set = line land (t.sets.(!i) - 1) in
        if lines.(set) = line then i := n
        else begin
          lines.(set) <- line;
          let m = t.misses.(!i) in
          m.(segment) <- m.(segment) + 1;
          incr i
        end
      done
    end
end

(* Any other cache is its own {!Cache.t} under the simulator's [dlast]
   rule. *)
type assoc = {
  cache : Cache.t;
  ashift : int;
  amisses : int array;  (* read misses per segment *)
  mutable alast : int;
}

(* The lanes that drive [caches], fresh, and for each cache the array
   its read misses per segment (of [nseg]) accumulate in.  Equal caches
   share a lane. *)
let lanes_of nseg (caches : Arch.Config.cache array) =
  let direct, assoc =
    List.partition (fun (c : Arch.Config.cache) -> c.Arch.Config.ways = 1)
      (Array.to_list caches)
  in
  let words (c : Arch.Config.cache) = c.Arch.Config.line_words in
  let direct =
    List.map
      (fun w ->
        let lane = List.filter (fun c -> words c = w) direct in
        (w, Inclusion.create ~segments:nseg lane))
      (List.sort_uniq compare (List.map words direct))
  in
  let assoc =
    List.map
      (fun c ->
        ( c,
          {
            cache = Cache.of_config c ~rng:(Rng.create ~seed:0xDCE);
            ashift = (Cache.geometry c).Cache.line_shift;
            amisses = Array.make nseg 0;
            alast = -1;
          } ))
      (List.sort_uniq compare assoc)
  in
  let sources =
    Array.map
      (fun (c : Arch.Config.cache) ->
        if c.Arch.Config.ways = 1 then
          Inclusion.misses (List.assoc (words c) direct) c
        else (List.assoc c assoc).amisses)
      caches
  in
  (Array.of_list (List.map snd direct), Array.of_list (List.map snd assoc), sources)

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

(* One walk of the event stream drives every cache plan of [plans] as a
   lane; the plans must restart their caches at the same segments.  The
   dcache sees loads and stores in program order, with the window
   traps' spill stores and fill loads interleaved where [nwin] puts
   them.  The trap model is the simulator's and runs once for all
   lanes: [resident] frames occupy windows; a save with [nwin - 1]
   resident spills the oldest frame at its [%sp], a restore with one
   resident fills the caller at its [%sp].  Both go through the plain
   cache entry points in [spill_window]/[fill_window] order and
   invalidate [dlast].  The window state is architectural, so it runs
   from each epoch's start whatever the plans do to the caches.
   [epochs] are the walked epochs in order, each with its
   {!event_cuts}.  Returns each plan's counts per segment. *)
let walk_dcache ~mem_size epochs ~nwin (plans : plan array) =
  Obs.Metrics.Counter.incr m_walks;
  Obs.Metrics.Counter.incr ~by:(Array.length plans) m_replays;
  let nseg =
    List.fold_left (fun n (_, cuts) -> n + Array.length cuts + 1) 0 epochs
  in
  let out = Array.map (fun _ -> Array.make nseg 0) plans in
  let overflows = Array.make nseg 0 and underflows = Array.make nseg 0 in
  let directs = ref [||] and assocs = ref [||] and sources = ref [||] in
  let chain = ref 0 in
  (* the lanes of the chain starting at segment [c] *)
  let start c =
    chain := c;
    let d, a, s =
      lanes_of nseg (Array.map (fun plan -> Option.get plan.(c)) plans)
    in
    directs := d;
    assocs := a;
    sources := s
  in
  let close stop =
    Array.iteri
      (fun p src -> Array.blit src !chain out.(p) !chain (stop - !chain))
      !sources
  in
  start 0;
  let g = ref 0 in
  let enter k =
    while !g < k do
      incr g;
      if plans.(0).(!g) <> None then begin
        close !g;
        start !g
      end
    done
  in
  let load addr =
    let k = !g in
    let ds = !directs in
    for j = 0 to Array.length ds - 1 do
      Inclusion.read ds.(j) ~segment:k addr
    done;
    let xs = !assocs in
    for j = 0 to Array.length xs - 1 do
      let a = xs.(j) in
      let line = addr lsr a.ashift in
      if line <> a.alast then begin
        a.alast <- line;
        if not (Cache.read a.cache addr) then a.amisses.(k) <- a.amisses.(k) + 1
      end
    done
  in
  let store addr =
    let xs = !assocs in
    for j = 0 to Array.length xs - 1 do
      let a = xs.(j) in
      let line = addr lsr a.ashift in
      if line <> a.alast && Cache.write a.cache addr then a.alast <- line
    done
  in
  let spill sp =
    Array.iter
      (fun a ->
        for w = 0 to 7 do
          ignore (Cache.write a.cache (sp + (4 * w)));
          ignore (Cache.write a.cache (sp + 32 + (4 * w)))
        done;
        a.alast <- -1)
      !assocs
  in
  let fill sp =
    let k = !g in
    Array.iter
      (fun d ->
        for w = 0 to 7 do
          Inclusion.read d ~segment:k (sp + (4 * w));
          Inclusion.read d ~segment:k (sp + 32 + (4 * w))
        done)
      !directs;
    let read a addr =
      if not (Cache.read a.cache addr) then a.amisses.(k) <- a.amisses.(k) + 1
    in
    Array.iter
      (fun a ->
        for w = 0 to 7 do
          read a (sp + (4 * w));
          read a (sp + 32 + (4 * w))
        done;
        a.alast <- -1)
      !assocs
  in
  List.iteri
    (fun ep ((tape : Tape.t), cuts) ->
      let nb = Array.length cuts in
      let base = ep * (nb + 1) in
      enter base;
      let frames = { sps = Array.make 64 0; origin = 16 } in
      frames.sps.(slot frames 0) <- mem_size - 128;
      let sp_of d = frames.sps.(slot frames d) in
      let set_sp d v = frames.sps.(slot frames d) <- v in
      let depth = ref 0 and resident = ref 1 in
      (* [next]: the counted events before the next boundary *)
      let seg = ref 0 and counted = ref 0 in
      let next = ref (if nb > 0 then cuts.(0) else max_int) in
      let advance () =
        while !counted = !next do
          incr seg;
          enter (base + !seg);
          next := if !seg < nb then cuts.(!seg) else max_int
        done
      in
      let r = Tape.reader tape.Tape.events in
      let addr = ref 0 in
      while not (Tape.at_end r) do
        let v = Tape.varint r in
        let kind = v land 7 and payload = v lsr 3 in
        if kind = Tape.ev_load then begin
          if !counted = !next then advance ();
          incr counted;
          addr := !addr + Tape.unzigzag payload;
          load !addr
        end
        else if kind = Tape.ev_store then begin
          if !counted = !next then advance ();
          incr counted;
          addr := !addr + Tape.unzigzag payload;
          store !addr
        end
        else if kind = Tape.ev_set_sp then set_sp !depth payload
        else if kind = Tape.ev_set_fp then set_sp (!depth - 1) payload
        else begin
          if !counted = !next then advance ();
          incr counted;
          if kind = Tape.ev_restore then begin
            if !resident = 1 then begin
              underflows.(!g) <- underflows.(!g) + 1;
              fill (sp_of (!depth - 1))
            end
            else decr resident;
            decr depth
          end
          else begin
            if !resident = nwin - 1 then begin
              overflows.(!g) <- overflows.(!g) + 1;
              spill (sp_of (!depth - !resident + 1))
            end
            else incr resident;
            incr depth;
            set_sp !depth payload
          end
        end
      done;
      enter (base + nb))
    epochs;
  close nseg;
  Array.map
    (fun misses ->
      Array.init nseg (fun k ->
          {
            read_misses = misses.(k);
            overflows = overflows.(k);
            underflows = underflows.(k);
          }))
    out

(* The walked epochs of [tr] cut at [bounds], as {!walk_dcache} takes
   them, from [segs], the {!split} at [bounds]. *)
let dcache_epochs tr bounds segs =
  let nb = Array.length bounds in
  [
    (tr.cold.tape, event_cuts nb (fun s -> segs.(s).events));
    (tr.warm.tape, event_cuts nb (fun s -> segs.(nb + 1 + s).events));
  ]

(* Every window count that never overflows walks alike. *)
let dcache_key tr ~bounds ~nwin (plan : plan) : dkey =
  (plan, min nwin (tr.resident_peak + 2), bounds)

(* ------------------------------------------------------------------ *)
(* Pricing                                                             *)

(* One segment's profile before its cache and window charges: static
   prices times counts from the decoded program — every charge the
   execute handlers make that no replay decides. *)
let static_profile (cm : Cost_model.t) (dec : Decode.insn array) (s : seg) =
  let cycles = ref 0 and insns = ref 0 and interlocks = ref 0 in
  let loads = ref 0 and stores = ref 0 and branches = ref 0 in
  let mults = ref 0 and divs = ref 0 in
  Array.iteri
    (fun i (di : Decode.insn) ->
      let n = s.counts.(i) in
      if n > 0 then begin
        insns := !insns + n;
        cycles := !cycles + (n * di.Decode.base_cycles);
        if di.Decode.interlock > 0 then begin
          interlocks := !interlocks + n;
          cycles := !cycles + (n * di.Decode.interlock)
        end;
        match di.Decode.op with
        | Decode.Load _ -> loads := !loads + n
        | Decode.Store _ -> stores := !stores + n
        | Decode.Branch _ -> branches := !branches + n
        | Decode.Mul _ -> mults := !mults + n
        | Decode.Div _ -> divs := !divs + n
        | _ -> ()
      end)
    dec;
  let icc_holds = if cm.Cost_model.icc_stall > 0 then s.icc_pairs else 0 in
  let p = Profiler.create () in
  p.Profiler.cycles <- !cycles + (s.taken * Cost_model.taken_extra cm) + icc_holds;
  p.Profiler.instructions <- !insns;
  p.Profiler.dcache_reads <- !loads;
  p.Profiler.dcache_writes <- !stores;
  p.Profiler.branches <- !branches;
  p.Profiler.taken_branches <- s.taken;
  p.Profiler.mults <- !mults;
  p.Profiler.divs <- !divs;
  p.Profiler.load_interlocks <- !interlocks;
  p.Profiler.icc_hold_stalls <- icc_holds;
  p

(* Adds the line fills and window traps the replays counted. *)
let add_replays (cm : Cost_model.t) (p : Profiler.t) ~imiss d =
  let regs = Cost_model.window_regs in
  let spill = Cost_model.trap_overhead + (regs * (1 + cm.Cost_model.store_extra)) in
  let fill = Cost_model.trap_overhead + (regs * (1 + cm.Cost_model.load_extra)) in
  p.Profiler.cycles <-
    p.Profiler.cycles
    + (imiss * cm.Cost_model.iline_fill)
    + (d.read_misses * cm.Cost_model.dline_fill)
    + (d.overflows * spill) + (d.underflows * fill);
  p.Profiler.icache_misses <- imiss;
  p.Profiler.dcache_reads <- p.Profiler.dcache_reads + (regs * d.underflows);
  p.Profiler.dcache_read_misses <- d.read_misses;
  p.Profiler.dcache_writes <- p.Profiler.dcache_writes + (regs * d.overflows);
  p.Profiler.window_overflows <- d.overflows;
  p.Profiler.window_underflows <- d.underflows

let validate who config =
  match Arch.Config.validate config with
  | Ok () -> ()
  | Error msg -> invalid_arg (who ^ ": " ^ msg)

let price_phased ?(reps = 1) ?(shift_stall = 0) ?(keep_caches = false)
    ?(wrap_cycles = 0) ~switches tr (config : Arch.Config.t) =
  validate "Pricer.price" config;
  let nwin = config.Arch.Config.iu.Arch.Config.reg_windows in
  ignore
    (List.fold_left
       (fun prev (sw : Machine.switch) ->
         if sw.Machine.at_insn <= prev then
           invalid_arg "Pricer.price: switch boundaries must be strictly increasing";
         validate "Pricer.price" sw.Machine.config;
         if sw.Machine.config.Arch.Config.iu.Arch.Config.reg_windows <> nwin then
           invalid_arg
             "Pricer.price: register-window count is not runtime-reconfigurable";
         sw.Machine.at_insn)
       0 switches);
  Obs.Span.with_span ~cat:"sim" "sim.price" @@ fun span ->
  let bounds = Array.of_list (List.map (fun sw -> sw.Machine.at_insn) switches) in
  let per = Array.length bounds + 1 in
  let segs = split tr bounds in
  (* Segment [g] runs on [installed.(g)], pays [charge.(g)] switch
     cycles at its start, and opens with a real switch when [real.(g)]:
     the [Machine.phased_epoch] schedule, segments [per..] being the
     warm epoch's, whose first pays the wrap charge. *)
  let first = (config, shift_stall) in
  let installed = Array.make (2 * per) first in
  let charge = Array.make (2 * per) 0 and real = Array.make (2 * per) false in
  List.iteri
    (fun i (sw : Machine.switch) ->
      let k = i + 1 in
      let next = (sw.Machine.config, sw.Machine.shift_stall) in
      if next <> installed.(k - 1) then begin
        real.(k) <- true;
        charge.(k) <- max 0 sw.Machine.cycles;
        installed.(k) <- next
      end
      else installed.(k) <- installed.(k - 1))
    switches;
  Array.blit installed 0 installed per per;
  Array.blit charge 0 charge per per;
  Array.blit real 0 real per per;
  real.(per) <- installed.(per - 1) <> first;
  charge.(per) <- max 0 wrap_cycles;
  (* a real switch restarts a cache cold unless the policy keeps it and
     its geometry is unchanged *)
  let plan sel =
    Array.init (2 * per) (fun g ->
        let c = sel (fst installed.(g)) in
        if g = 0 then Some c
        else if real.(g) && not (keep_caches && sel (fst installed.(g - 1)) = c)
        then Some c
        else None)
  in
  let iplan = plan (fun c -> c.Arch.Config.icache) in
  let dplan = plan (fun c -> c.Arch.Config.dcache) in
  let imiss =
    Memo.find tr.imemo (iplan, bounds) (fun () ->
        match first_fetches tr.text iplan segs with
        | Some misses -> misses
        | None -> walk_icache tr.text [ tr.cold.tape; tr.warm.tape ] ~bounds iplan)
  in
  let dcounts =
    Memo.find tr.dmemo (dcache_key tr ~bounds ~nwin dplan) (fun () ->
        (walk_dcache ~mem_size:tr.mem_size (dcache_epochs tr bounds segs) ~nwin
           [| dplan |]).(0))
  in
  let models = ref [] in
  let model key =
    match List.assoc_opt key !models with
    | Some m -> m
    | None ->
        let c, stall = key in
        let cm = Cost_model.of_arch_config ~shift_stall:stall c in
        let m = (cm, Decode.of_program cm tr.text.prog) in
        models := (key, m) :: !models;
        m
  in
  let profile g =
    let cm, dec = model installed.(g) in
    let p = static_profile cm dec segs.(g) in
    add_replays cm p ~imiss:imiss.(g) dcounts.(g);
    p.Profiler.cycles <- p.Profiler.cycles + charge.(g);
    p
  in
  let sum = Array.fold_left Profiler.add (Profiler.create ()) in
  let cold_phases = Array.init per profile in
  let cold = sum cold_phases in
  let charged = Array.fold_left ( + ) 0 (Array.sub charge 0 per) in
  let phased =
    if reps = 1 then
      {
        Machine.result =
          {
            Machine.profile = cold;
            cold_cycles = cold.Profiler.cycles;
            warm_cycles = cold.Profiler.cycles;
            checksum = tr.cold.checksum;
          };
        phase_profiles = Array.to_list cold_phases;
        switch_cycles = charged;
      }
    else begin
      if tr.warm.checksum <> tr.cold.checksum then
        failwith
          (Printf.sprintf
             "Pricer.run: non-deterministic application (cold checksum %d, \
              warm %d)"
             tr.cold.checksum tr.warm.checksum);
      let warm_phases = Array.init per (fun s -> profile (per + s)) in
      let warm = sum warm_phases in
      {
        Machine.result =
          {
            Machine.profile = Profiler.scale_add cold ~warm ~reps;
            cold_cycles = cold.Profiler.cycles;
            warm_cycles = warm.Profiler.cycles;
            checksum = tr.cold.checksum;
          };
        phase_profiles =
          List.init per (fun s ->
              Profiler.scale_add cold_phases.(s) ~warm:warm_phases.(s) ~reps);
        switch_cycles = charged + ((reps - 1) * (wrap_cycles + charged));
      }
    end
  in
  Obs.Span.add_attr span "cycles"
    (Obs.Json.Int phased.Machine.result.Machine.profile.Profiler.cycles);
  phased

let price ?reps ?shift_stall tr config =
  (price_phased ?reps ?shift_stall ~switches:[] tr config).Machine.result

(* Per-window profiles of the cold epoch: the detection boundaries cut
   one dcache walk, and the icache walk too unless first fetches hold
   (they do whenever the cache holds all the code the epoch runs).
   None of it is memoized — a detection prices its windows once. *)
let windows ?(shift_stall = 0) tr (config : Arch.Config.t) ~window =
  validate "Pricer.windows" config;
  if window < 1 then invalid_arg "Pricer.windows: window must be >= 1";
  let cm = Cost_model.of_arch_config ~shift_stall config in
  let dec = Decode.of_program cm tr.text.prog in
  let nw = max 1 ((tr.cold.instructions + window - 1) / window) in
  let bounds = Array.init (nw - 1) (fun k -> (k + 1) * window) in
  let profiles = Array.make nw (Profiler.create ()) in
  let events = Array.make nw 0 in
  let first_fetched = Array.make nw 0 in
  let count, fits = first_fetch tr.text config.Arch.Config.icache in
  segments tr.text tr.cold.tape bounds (fun s seg ->
      profiles.(s) <- static_profile cm dec seg;
      events.(s) <- seg.events;
      first_fetched.(s) <- count seg);
  let plan c = Array.init nw (fun g -> if g = 0 then Some c else None) in
  let imiss =
    if fits () then first_fetched
    else
      walk_icache tr.text [ tr.cold.tape ] ~bounds (plan config.Arch.Config.icache)
  in
  let dcounts =
    (walk_dcache ~mem_size:tr.mem_size
       [ (tr.cold.tape, event_cuts (nw - 1) (Array.get events)) ]
       ~nwin:config.Arch.Config.iu.Arch.Config.reg_windows
       [| plan config.Arch.Config.dcache |]).(0)
  in
  Array.iteri (fun g p -> add_replays cm p ~imiss:imiss.(g) dcounts.(g)) profiles;
  profiles

(* ------------------------------------------------------------------ *)
(* Batches                                                             *)

type runner = { jobs : int; run : (unit -> unit) list -> unit }

let sequential = { jobs = 1; run = List.iter (fun task -> task ()) }

(* What a walk's parts cost, relative to a 2-way {!Cache.t} lane:
   decoding the events and running the window model, an inclusion lane
   of [n] caches, and a {!Cache.t} lane by its ways — its policy makes
   no measurable difference (measured on dct, phases and drr; see
   EXPERIMENTS.md). *)
let walk_cost = 1.2
let direct_cost n = 0.25 +. (0.05 *. float_of_int (n - 1))
let assoc_cost (c : Arch.Config.cache) =
  1.0 +. (0.15 *. float_of_int (c.Arch.Config.ways - 2))

(* One walk: the window count it runs, and its parts, each an
   inclusion lane or a {!Cache.t} lane with its cost and the replays
   (by memo key) it settles. *)
type walk = { nwin : int; parts : (float * dkey list) list }

let walk_total w = List.fold_left (fun acc (c, _) -> acc +. c) walk_cost w.parts

(* The finishing time of [walks] placed largest first, each on the
   least loaded of [jobs] workers. *)
let makespan jobs walks =
  let load = Array.make (max 1 jobs) 0.0 in
  List.iter
    (fun c ->
      let i = ref 0 in
      Array.iteri (fun j l -> if l < load.(!i) then i := j) load;
      load.(!i) <- load.(!i) +. c)
    (List.sort (fun a b -> compare b a) (List.map walk_total walks));
  Array.fold_left Float.max 0.0 load

(* Splits the costliest walk with at least two parts in two halves of
   about equal cost, for as long as that shortens the makespan. *)
let rec balance jobs walks =
  let splittable = List.filter (fun w -> List.length w.parts > 1) walks in
  match List.sort (fun a b -> compare (walk_total b) (walk_total a)) splittable with
  | [] -> walks
  | w :: _ ->
      let halve (a, ca, b, cb) ((c, _) as part) =
        if ca <= cb then (part :: a, ca +. c, b, cb) else (a, ca, part :: b, cb +. c)
      in
      let a, _, b, _ =
        List.fold_left halve ([], 0.0, [], 0.0)
          (List.sort (fun (c, _) (d, _) -> compare d c) w.parts)
      in
      let split =
        { w with parts = a } :: { w with parts = b }
        :: List.filter (fun x -> x != w) walks
      in
      if makespan jobs split < makespan jobs walks then balance jobs split
      else walks

let plan_of ((plan, _, _) : dkey) = plan

(* The parts of one window class's walk: one inclusion lane per line
   size, one lane per other cache. *)
let parts keys =
  let cache key = Option.get (plan_of key).(0) in
  let direct, assoc =
    List.partition (fun key -> (cache key).Arch.Config.ways = 1) keys
  in
  let words key = (cache key).Arch.Config.line_words in
  List.map
    (fun w ->
      let lane = List.filter (fun key -> words key = w) direct in
      (direct_cost (List.length lane), lane))
    (List.sort_uniq compare (List.map words direct))
  @ List.map (fun key -> (assoc_cost (cache key), [ key ])) assoc

let prime ?(runner = sequential) ?(boundaries = []) tr configs =
  let bounds = Array.of_list boundaries in
  ignore
    (Array.fold_left
       (fun prev b ->
         if b <= prev then
           invalid_arg "Pricer.prime: boundaries must be strictly increasing";
         b)
       0 bounds);
  let per = Array.length bounds + 1 in
  let claimed =
    List.filter_map
      (fun (c : Arch.Config.t) ->
        let nwin = c.Arch.Config.iu.Arch.Config.reg_windows in
        let plan =
          Array.init (2 * per) (fun g ->
              if g = 0 then Some c.Arch.Config.dcache else None)
        in
        let key = dcache_key tr ~bounds ~nwin plan in
        if Arch.Config.is_valid c && Memo.claim tr.dmemo key then Some (nwin, key)
        else None)
      configs
  in
  let class_of (_, (_, cls, _)) = cls in
  let walks =
    List.map
      (fun cls ->
        let members = List.filter (fun m -> class_of m = cls) claimed in
        { nwin = fst (List.hd members); parts = parts (List.map snd members) })
      (List.sort_uniq compare (List.map class_of claimed))
  in
  let task w () =
    let keys = List.concat_map snd w.parts in
    Obs.Span.with_ ~cat:"sim" "sim.walk"
      ~attrs:[ ("lanes", Obs.Json.Int (List.length keys)) ]
    @@ fun () ->
    let counts =
      walk_dcache ~mem_size:tr.mem_size
        (dcache_epochs tr bounds (split tr bounds))
        ~nwin:w.nwin
        (Array.of_list (List.map plan_of keys))
    in
    List.iteri (fun i key -> Memo.settle tr.dmemo key (Some counts.(i))) keys
  in
  (* a walk that failed or never ran gives its claims up, so a later
     price computes them *)
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun (_, key) -> Memo.abandon tr.dmemo key) claimed)
    (fun () ->
      runner.run
        (List.map task
           (List.sort
              (fun a b -> compare (walk_total b) (walk_total a))
              (balance runner.jobs walks))))

(* ------------------------------------------------------------------ *)
(* The trace store                                                     *)

let store : (int * Isa.Program.t, trace) Memo.t = Memo.create ()

let stored ?(mem_size = Machine.default_mem_size) prog =
  Memo.find store (mem_size, prog) (fun () -> record ~mem_size prog)

let run ?(mem_size = Machine.default_mem_size) ?reps ?shift_stall config prog =
  validate "Pricer.run" config;
  let r = price ?reps ?shift_stall (stored ~mem_size prog) config in
  Machine.flush_profile r.Machine.profile;
  r

let run_phased ?(mem_size = Machine.default_mem_size) ?reps ?shift_stall
    ?keep_caches ?wrap_cycles ~switches config prog =
  validate "Pricer.run_phased" config;
  let ph =
    price_phased ?reps ?shift_stall ?keep_caches ?wrap_cycles ~switches
      (stored ~mem_size prog) config
  in
  Machine.flush_profile ph.Machine.result.Machine.profile;
  ph

let detect ?(options = Phase.default_options) ?shift_stall
    ?(mem_size = Machine.default_mem_size) config prog =
  Phase.validate options;
  Phase.segment ~options
    (windows ?shift_stall (stored ~mem_size prog) config ~window:options.Phase.window)

let clear () = Memo.clear store
