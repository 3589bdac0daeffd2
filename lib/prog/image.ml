open Liquid_isa
open Liquid_visa

exception Layout_error of string

type t = {
  name : string;
  code : Minsn.exec array;
  addrs : int array;
  code_base : int;
  entry : int;
  labels : (string * int) list;
  arrays : (string * int * Data.t) list;
  data_bytes : int;
  region_entries : (int * string) list;
}

let code_base = 0x1000
let data_base = 0x100000

let align_up addr align = (addr + align - 1) / align * align

let of_program (p : Program.t) =
  (match Program.validate p with
  | Ok () -> ()
  | Error msg -> raise (Layout_error (p.name ^ ": " ^ msg)));
  (* Assign instruction indices to labels. *)
  let labels, rev_insns =
    List.fold_left
      (fun (labels, insns) item ->
        match item with
        | Program.Label l -> ((l, List.length insns) :: labels, insns)
        | Program.I i -> (labels, i :: insns))
      ([], []) p.text
  in
  let insns = List.rev rev_insns in
  let labels = List.rev labels in
  let label_index l =
    match List.assoc_opt l labels with
    | Some i -> i
    | None -> raise (Layout_error ("unknown label " ^ l))
  in
  (* Lay out data arrays. *)
  let arrays, data_end =
    List.fold_left
      (fun (placed, addr) (d : Data.t) ->
        let addr = align_up addr (Data.alignment d) in
        ((d.name, addr, d) :: placed, addr + Data.byte_size d))
      ([], data_base) p.data
  in
  let arrays = List.rev arrays in
  let sym_addr s =
    match List.find_opt (fun (n, _, _) -> n = s) arrays with
    | Some (_, addr, _) -> addr
    | None -> raise (Layout_error ("unknown data symbol " ^ s))
  in
  let code =
    List.map (Minsn.map ~sym:sym_addr ~lab:label_index) insns |> Array.of_list
  in
  let entry =
    match List.assoc_opt "main" labels with
    | Some i -> i
    | None -> if Array.length code > 0 then 0 else raise (Layout_error "empty program")
  in
  let region_entries =
    List.filter_map
      (function
        | Program.I (Minsn.S (Insn.Bl { target; region = true })) ->
            Some (label_index target, target)
        | Program.I _ | Program.Label _ -> None)
      p.text
    |> List.sort_uniq compare
  in
  {
    name = p.name;
    code;
    addrs = Array.init (Array.length code) (fun i -> code_base + (4 * i));
    code_base;
    entry;
    labels;
    arrays;
    data_bytes = data_end - data_base;
    region_entries;
  }

let load_memory t mem =
  List.iter
    (fun (_, addr, (d : Data.t)) ->
      let b = Esize.bytes d.esize in
      Array.iteri
        (fun i v ->
          Liquid_machine.Memory.write mem ~addr:(addr + (i * b)) ~bytes:b v)
        d.values)
    t.arrays

let addr_of_index t i = t.code_base + (4 * i)
let index_of_addr t a = (a - t.code_base) / 4
let find_label t l = List.assoc_opt l t.labels

let array_addr t name =
  match List.find_opt (fun (n, _, _) -> n = name) t.arrays with
  | Some (_, addr, _) -> addr
  | None -> raise Not_found

let array_at t addr =
  List.find_opt
    (fun (_, base, d) -> addr >= base && addr < base + Data.byte_size d)
    t.arrays
  |> Option.map (fun (n, _, d) -> (n, d))

let pp ppf t =
  Format.fprintf ppf "@[<v>; image %s (entry @%d)@ " t.name t.entry;
  Array.iteri
    (fun i insn ->
      let label =
        List.filter_map (fun (l, j) -> if i = j then Some l else None) t.labels
      in
      List.iter (fun l -> Format.fprintf ppf "%s:@ " l) label;
      Format.fprintf ppf "  @%-4d %a@ " i Minsn.pp_exec insn)
    t.code;
  List.iter
    (fun (n, addr, d) ->
      Format.fprintf ppf "  %s @ 0x%x (%d bytes)@ " n addr (Data.byte_size d))
    t.arrays;
  Format.fprintf ppf "@]"
