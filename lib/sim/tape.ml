type t = {
  taken : Bytes.t array;
  targets : Bytes.t array;
  events : Bytes.t array;
  resident_peak : int;
}

let ev_load = 0
let ev_store = 1
let ev_save = 2
let ev_restore = 3
let ev_set_sp = 4
let ev_set_fp = 5
let zigzag d = if d >= 0 then d lsl 1 else (-d lsl 1) - 1
let unzigzag z = if z land 1 = 0 then z lsr 1 else -((z + 1) lsr 1)

(* Fixed-size chunks: appending never copies recorded data.  A buffer
   may follow a reference sequence of chunks (the cold epoch's, while
   recording the warm one): a sealed chunk equal to its reference is
   replaced by the reference and its storage reused, so an epoch that
   repeats its predecessor holds one chunk of its own. *)
let chunk_bytes = 1 lsl 16

type buf = {
  like : Bytes.t array;  (* reference chunks *)
  mutable full : Bytes.t list;  (* sealed chunks, newest first *)
  mutable sealed : int;
  mutable cur : Bytes.t;
  mutable pos : int;  (* bytes used in [cur] *)
}

let buf like =
  { like; full = []; sealed = 0; cur = Bytes.create chunk_bytes; pos = 0 }

(* Seal the used part of [cur] as the next chunk. *)
let seal_cur b =
  let chunk = if b.pos = chunk_bytes then b.cur else Bytes.sub b.cur 0 b.pos in
  let k = b.sealed in
  b.sealed <- k + 1;
  b.pos <- 0;
  if k < Array.length b.like && Bytes.equal b.like.(k) chunk then
    b.full <- b.like.(k) :: b.full
  else begin
    b.full <- chunk :: b.full;
    if chunk == b.cur then b.cur <- Bytes.create chunk_bytes
  end

let push_byte b v =
  if b.pos = chunk_bytes then seal_cur b;
  Bytes.unsafe_set b.cur b.pos (Char.unsafe_chr v);
  b.pos <- b.pos + 1

let rec push_varint b v =
  if v < 0x80 then push_byte b v
  else begin
    push_byte b (v land 0x7F lor 0x80);
    push_varint b (v lsr 7)
  end

let seal b =
  if b.pos > 0 || b.sealed = 0 then seal_cur b;
  Array.of_list (List.rev b.full)

type recorder = {
  rtaken : buf;
  mutable bits : int;  (* pending outcome bits, least significant first *)
  mutable nbits : int;
  rtargets : buf;
  revents : buf;
  mutable last_addr : int;
  mutable depth : int;
  mutable min_depth : int;
  mutable peak : int;
}

let recorder ?like () =
  let chunks f = match like with Some t -> f t | None -> [||] in
  {
    rtaken = buf (chunks (fun t -> t.taken));
    bits = 0;
    nbits = 0;
    rtargets = buf (chunks (fun t -> t.targets));
    revents = buf (chunks (fun t -> t.events));
    last_addr = 0;
    depth = 0;
    min_depth = 0;
    peak = 1;
  }

let branch r taken =
  if taken then r.bits <- r.bits lor (1 lsl r.nbits);
  r.nbits <- r.nbits + 1;
  if r.nbits = 8 then begin
    push_byte r.rtaken r.bits;
    r.bits <- 0;
    r.nbits <- 0
  end

let jump r target = push_varint r.rtargets target
let event r kind payload = push_varint r.revents ((payload lsl 3) lor kind)

let access r kind addr =
  event r kind (zigzag (addr - r.last_addr));
  r.last_addr <- addr

let load r addr = access r ev_load addr
let store r addr = access r ev_store addr

(* Without overflows, the frames resident when a save executes are
   those entered since the lowest depth so far. *)
let save r ~sp =
  r.peak <- max r.peak (r.depth - r.min_depth + 1);
  r.depth <- r.depth + 1;
  event r ev_save sp

let restore r =
  r.depth <- r.depth - 1;
  event r ev_restore 0;
  if r.depth < r.min_depth then begin
    r.min_depth <- r.depth;
    true
  end
  else false

let set_sp r v = event r ev_set_sp v
let set_fp r v = event r ev_set_fp v

let finish r =
  if r.nbits > 0 then push_byte r.rtaken r.bits;
  {
    taken = seal r.rtaken;
    targets = seal r.rtargets;
    events = seal r.revents;
    resident_peak = r.peak;
  }

let bytes t =
  let sum = Array.fold_left (fun acc b -> acc + Bytes.length b) 0 in
  sum t.taken + sum t.targets + sum t.events

type reader = {
  chunks : Bytes.t array;
  mutable ci : int;
  mutable chunk : Bytes.t;
  mutable rpos : int;
  mutable byte : int;  (* current byte of a bit stream *)
  mutable bit_ix : int;  (* next bit of [byte]; 8 when it is used up *)
}

let reader chunks =
  {
    chunks;
    ci = 0;
    chunk = (if Array.length chunks = 0 then Bytes.empty else chunks.(0));
    rpos = 0;
    byte = 0;
    bit_ix = 8;
  }

(* Every read has an in-chunk fast path that allocates nothing and
   checks the chunk's bound once, and falls back to the chunk-crossing
   path only near a chunk's end.  [next_chunk] steps over exhausted
   chunks, so a [false] [at_end] leaves [rpos] readable. *)
let rec next_chunk r =
  r.ci + 1 >= Array.length r.chunks
  || begin
       r.ci <- r.ci + 1;
       r.chunk <- r.chunks.(r.ci);
       r.rpos <- 0;
       r.rpos >= Bytes.length r.chunk && next_chunk r
     end

let[@inline] at_end r = r.rpos >= Bytes.length r.chunk && next_chunk r

let next_byte r =
  if at_end r then invalid_arg "Tape.reader: read past the end of the stream";
  let b = Char.code (Bytes.unsafe_get r.chunk r.rpos) in
  r.rpos <- r.rpos + 1;
  b

let rec varint_slow r acc shift =
  let b = next_byte r in
  let acc = acc lor ((b land 0x7F) lsl shift) in
  if b land 0x80 = 0 then acc else varint_slow r acc (shift + 7)

(* A varint of an OCaml int spans at most 9 bytes; the fast path reads
   only when all 9 lie in the chunk. *)
let max_varint = 9

let rec varint_fast r chunk pos acc shift =
  let b = Char.code (Bytes.unsafe_get chunk pos) in
  let acc = acc lor ((b land 0x7F) lsl shift) in
  if b land 0x80 = 0 then begin
    r.rpos <- pos + 1;
    acc
  end
  else if shift = 7 * (max_varint - 1) then
    invalid_arg "Tape.reader: varint longer than an int"
  else varint_fast r chunk (pos + 1) acc (shift + 7)

let varint r =
  let chunk = r.chunk and pos = r.rpos in
  if pos + max_varint <= Bytes.length chunk then varint_fast r chunk pos 0 0
  else varint_slow r 0 0

let bit r =
  if r.bit_ix = 8 then begin
    r.byte <- next_byte r;
    r.bit_ix <- 0
  end;
  let b = (r.byte lsr r.bit_ix) land 1 = 1 in
  r.bit_ix <- r.bit_ix + 1;
  b
