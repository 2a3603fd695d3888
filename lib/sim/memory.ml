type t = { data : Bytes.t }

exception Fault of string

let create ~size = { data = Bytes.make size '\000' }
let size t = Bytes.length t.data

let load_image t ~at image =
  Bytes.blit image 0 t.data at (Bytes.length image)

let fault fmt = Printf.ksprintf (fun s -> raise (Fault s)) fmt

let check t addr width =
  if addr < 0 || addr + width > Bytes.length t.data then
    fault "address 0x%x out of range (size 0x%x)" addr (Bytes.length t.data)
  else if addr land (width - 1) <> 0 then
    fault "misaligned %d-byte access at 0x%x" width addr

let read_u8 t addr =
  check t addr 1;
  Char.code (Bytes.unsafe_get t.data addr)

let read_u16 t addr =
  check t addr 2;
  Bytes.get_uint16_le t.data addr

let read_u32 t addr =
  check t addr 4;
  Int32.to_int (Bytes.get_int32_le t.data addr) land 0xFFFFFFFF

let write_u8 t addr v =
  check t addr 1;
  Bytes.unsafe_set t.data addr (Char.unsafe_chr (v land 0xFF))

let write_u16 t addr v =
  check t addr 2;
  Bytes.set_uint16_le t.data addr (v land 0xFFFF)

let write_u32 t addr v =
  check t addr 4;
  Bytes.set_int32_le t.data addr (Int32.of_int v)

let clear t = Bytes.fill t.data 0 (Bytes.length t.data) '\000'

let read_first_cycles = 6
let read_next_cycles = 1
let write_cycles = 2
let line_fill_cycles ~line_words =
  read_first_cycles + ((line_words - 1) * read_next_cycles)
