(** The configuration-invariant record of one execution epoch.

    {!Cpu.record} runs a machine on untimed recording handlers that
    execute the program and append what no microarchitecture
    parameter can change: where control went and the data-side events
    in program order.  {!Pricer} replays a finished tape through the
    caches of any configuration.

    The instruction stream is kept as its control decisions only — one
    bit per executed conditional branch and the target of each [jmpl] —
    since the program text determines everything in between.  Data
    events are variable-length: a load or store costs one byte when its
    address is near the previous access.  Streams are appended to
    64 KiB chunks, so growth never copies what is already recorded; a
    varint may straddle two chunks. *)

(** {2 Finished tapes} *)

type t = {
  taken : Bytes.t array;
      (** one bit per executed conditional branch, least significant
          bit first: 1 when it was taken *)
  targets : Bytes.t array;  (** varint target of each executed [jmpl] *)
  events : Bytes.t array;  (** varint data-side events, see below *)
  resident_peak : int;
      (** the most frames resident at any [save] on a register file
          that never overflows: with [nwin >= resident_peak + 2]
          windows no [save] traps *)
}

(** {2 Event encoding}

    Each data-side event is the varint [(payload lsl 3) lor kind].  A
    load's or store's payload is the zigzag-coded difference between
    its address and the previous load's or store's (the first is
    relative to 0); [ev_save], [ev_set_sp] and [ev_set_fp] carry a
    32-bit register value; [ev_restore] carries nothing. *)

val ev_load : int
val ev_store : int

val ev_save : int
(** A [save]; the value is the new frame's [%sp] after it executed. *)

val ev_restore : int

val ev_set_sp : int
(** Any other write of the current frame's [%sp] ([%o6]). *)

val ev_set_fp : int
(** A write of the current frame's [%fp] ([%i6]), which is the
    caller frame's [%sp]: by an instruction, or by the underflow fill of
    a frame below every frame the epoch entered so far. *)

val unzigzag : int -> int

(** {2 Recording} *)

type recorder

val recorder : ?like:t -> unit -> recorder
(** A fresh recorder.  With [like], every finished chunk equal to the
    corresponding chunk of [like] is shared with it instead of stored
    again, so recording an epoch that repeats [like] allocates a single
    chunk per stream. *)

val branch : recorder -> bool -> unit
(** A conditional branch's outcome. *)

val jump : recorder -> int -> unit
(** A [jmpl]'s target instruction index. *)

val load : recorder -> int -> unit
val store : recorder -> int -> unit
val save : recorder -> sp:int -> unit

val restore : recorder -> bool
(** Records a [restore]; [true] when it returned below every frame of
    the epoch so far (the hardware then fills that frame from memory). *)

val set_sp : recorder -> int -> unit
val set_fp : recorder -> int -> unit

val finish : recorder -> t
(** Seal the recording.  The recorder must not be used afterwards. *)

val bytes : t -> int
(** Storage held by the tape's chunks. *)

(** {2 Reading} *)

type reader
(** A cursor over one chunked stream.  Every read takes an in-chunk
    fast path that allocates nothing and checks the chunk's bound once
    per read rather than per byte; only a read near a chunk's end falls
    back to the byte-by-byte path that crosses into the next chunk.
    Every pricing walk decodes its tape through these. *)

val reader : Bytes.t array -> reader

val at_end : reader -> bool
(** Whether the stream is used up.  Steps over exhausted chunks. *)

val varint : reader -> int
(** The next varint.  Reading past the end raises [Invalid_argument]. *)

val bit : reader -> bool
(** The next bit of a bit stream. *)
