module Json = Liquid_obs.Json
module Runner = Liquid_harness.Runner
module Fingerprint = Liquid_faults.Fingerprint

type spec = {
  j_id : string;
  j_workload : string;
  j_variant : Runner.variant;
  j_variant_str : string;
  j_priority : int;
  j_fuel : int option;
  j_deadline_ms : float option;
  j_retries : int option;
  j_blocks : bool;
  j_superblocks : bool;
  j_fault_seed : int option;
  j_transient_attempts : int;
}

type request = Job of spec | Sync | Metrics | Quit

(* --- field accessors over the parsed line --- *)

let str_field obj name =
  match Json.member name obj with
  | None | Some Json.Null -> Ok None
  | Some (Json.Str s) -> Ok (Some s)
  | Some _ -> Error (Printf.sprintf "field %S: expected string" name)

let int_field obj name =
  match Json.member name obj with
  | None | Some Json.Null -> Ok None
  | Some (Json.Int i) -> Ok (Some i)
  | Some _ -> Error (Printf.sprintf "field %S: expected int" name)

let num_field obj name =
  match Json.member name obj with
  | None | Some Json.Null -> Ok None
  | Some (Json.Int i) -> Ok (Some (float_of_int i))
  | Some (Json.Float f) -> Ok (Some f)
  | Some _ -> Error (Printf.sprintf "field %S: expected number" name)

(* Supervision knobs are budgets and counts: a negative (or, for a
   number, non-finite) value has no meaning, so it is a protocol error
   rather than something the supervisor silently clamps. *)
let non_negative name = function
  | Some v when v < 0 ->
      Error (Printf.sprintf "field %S: must be non-negative, got %d" name v)
  | v -> Ok v

let non_negative_num name = function
  | Some f when (not (Float.is_finite f)) || f < 0.0 ->
      Error
        (Printf.sprintf "field %S: must be a finite non-negative number, got %g"
           name f)
  | v -> Ok v

let bool_field obj name ~default =
  match Json.member name obj with
  | None | Some Json.Null -> Ok default
  | Some (Json.Bool b) -> Ok b
  | Some _ -> Error (Printf.sprintf "field %S: expected bool" name)

let ( let* ) = Result.bind

let parse_job obj =
  let* workload = str_field obj "workload" in
  match workload with
  | None -> Error "job request: missing field \"workload\""
  | Some workload ->
      let* id =
        match Json.member "id" obj with
        | None | Some Json.Null -> Ok ""
        | Some (Json.Str s) -> Ok s
        | Some (Json.Int i) -> Ok (string_of_int i)
        | Some _ -> Error "field \"id\": expected string or int"
      in
      let* vs = str_field obj "variant" in
      let vs = Option.value vs ~default:"liquid:8" in
      let* variant =
        match Runner.variant_of_string vs with
        | Ok v -> Ok v
        | Error m -> Error (Printf.sprintf "field \"variant\": %s" m)
      in
      let* priority = int_field obj "priority" in
      let* fuel = int_field obj "fuel" in
      let* fuel = non_negative "fuel" fuel in
      let* deadline_ms = num_field obj "deadline_ms" in
      let* deadline_ms = non_negative_num "deadline_ms" deadline_ms in
      let* retries = int_field obj "retries" in
      let* retries = non_negative "retries" retries in
      let* blocks = bool_field obj "blocks" ~default:true in
      let* superblocks = bool_field obj "superblocks" ~default:true in
      let* fault_seed = int_field obj "fault_seed" in
      let* transient_attempts = int_field obj "transient_attempts" in
      let* transient_attempts =
        non_negative "transient_attempts" transient_attempts
      in
      Ok
        (Job
           {
             j_id = id;
             j_workload = workload;
             j_variant = variant;
             j_variant_str = Runner.variant_to_string variant;
             j_priority = Option.value priority ~default:0;
             j_fuel = fuel;
             j_deadline_ms = deadline_ms;
             j_retries = retries;
             j_blocks = blocks;
             j_superblocks = superblocks;
             j_fault_seed = fault_seed;
             j_transient_attempts = Option.value transient_attempts ~default:0;
           })

let parse_request line =
  match Json.of_string line with
  | Error e -> Error (Printf.sprintf "parse error: %s" e)
  | Ok (Json.Obj _ as obj) -> (
      match Json.member "op" obj with
      | Some (Json.Str "sync") -> Ok Sync
      | Some (Json.Str "metrics") -> Ok Metrics
      | Some (Json.Str "quit") -> Ok Quit
      | Some (Json.Str op) -> Error (Printf.sprintf "unknown op %S" op)
      | Some _ -> Error "field \"op\": expected string"
      | None -> parse_job obj)
  | Ok _ -> Error "request: expected a JSON object"

(* --- dedup fingerprint --- *)

(* FNV-1a over the semantic fields, using the same primitive steps as
   the architectural-state fingerprints. The basis is the 32-bit FNV
   offset; any fixed constant works, it only has to be stable. *)
let fnv_string h s =
  String.fold_left (fun h c -> Fingerprint.fnv_byte h (Char.code c)) h s

let fnv_opt h = function
  | None -> Fingerprint.fnv_int h (-1)
  | Some i -> Fingerprint.fnv_int (Fingerprint.fnv_int h 1) i

let fingerprint s =
  let h = 0x811c9dc5 in
  let h = fnv_string h s.j_workload in
  let h = Fingerprint.fnv_byte h 0x7c in
  let h = fnv_string h s.j_variant_str in
  let h = fnv_opt h s.j_fuel in
  let h = Fingerprint.fnv_int h (Bool.to_int s.j_blocks) in
  let h = Fingerprint.fnv_int h (Bool.to_int s.j_superblocks) in
  let h = fnv_opt h s.j_fault_seed in
  Fingerprint.fnv_int h s.j_transient_attempts

(* --- replies --- *)

type status = Ok_ | Degraded | Shed | Failed

let status_name = function
  | Ok_ -> "ok"
  | Degraded -> "degraded"
  | Shed -> "shed"
  | Failed -> "failed"

type reply = {
  p_id : string;
  p_status : status;
  p_workload : string;
  p_variant : string;
  p_ran : string;
  p_cycles : int;
  p_retired : int;
  p_regs_hash : int;
  p_mem_hash : int;
  p_attempts : int;
  p_cached : bool;
  p_reason : string option;
  p_diag : string option;
}

let reply_to_json r =
  let opt name = function
    | None -> []
    | Some s -> [ (name, Json.Str s) ]
  in
  Json.Obj
    ([
       ("id", Json.Str r.p_id);
       ("status", Json.Str (status_name r.p_status));
       ("workload", Json.Str r.p_workload);
       ("variant", Json.Str r.p_variant);
       ("ran", Json.Str r.p_ran);
       ("cycles", Json.Int r.p_cycles);
       ("retired", Json.Int r.p_retired);
       ("regs_hash", Json.Int r.p_regs_hash);
       ("mem_hash", Json.Int r.p_mem_hash);
       ("attempts", Json.Int r.p_attempts);
       ("cached", Json.Bool r.p_cached);
     ]
    @ opt "reason" r.p_reason
    @ opt "diag" r.p_diag)
