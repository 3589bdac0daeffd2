open Liquid_isa
open Liquid_prog
module Memory = Liquid_machine.Memory

(* FNV-1a over little-endian bytes; the seed is the standard 64-bit
   offset basis with the top bit dropped so it reads as an OCaml int
   literal. This is the same function the golden differential suite has
   pinned hashes against since PR 1, so the two observers can never
   drift apart. *)
let offset_basis = 0x4bf29ce484222325
let fnv_prime = 0x100000001b3
let fnv_byte h b = (h lxor (b land 0xFF)) * fnv_prime

let fnv_int h v =
  let h = fnv_byte h v in
  let h = fnv_byte h (v asr 8) in
  let h = fnv_byte h (v asr 16) in
  fnv_byte h (v asr 24)

let regs_hash regs = Array.fold_left fnv_int offset_basis regs

let regs_hash_masked ~mask regs =
  let h = ref offset_basis in
  Array.iteri (fun i v -> h := fnv_int !h (if mask.(i) then 0 else v)) regs;
  !h

(* Arrays are read a chunk at a time into one scratch buffer (allocated
   per call, so concurrent domains never share it) and the FNV fold runs
   over the buffer; bytes and order are exactly those of a per-byte
   [Memory.read_byte] walk. *)
let chunk_bytes = 4096

let mem_hash (image : Image.t) mem =
  let buf = Bytes.create chunk_bytes in
  List.fold_left
    (fun h (_, addr, (d : Data.t)) ->
      let bytes = Esize.bytes d.Data.esize * Array.length d.Data.values in
      let h = ref h in
      let pos = ref 0 in
      while !pos < bytes do
        let n = min chunk_bytes (bytes - !pos) in
        Memory.read_block mem ~addr:(addr + !pos) ~len:n buf;
        for i = 0 to n - 1 do
          h := fnv_byte !h (Char.code (Bytes.unsafe_get buf i))
        done;
        pos := !pos + n
      done;
      !h)
    offset_basis image.Image.arrays
