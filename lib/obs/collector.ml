open Liquid_pipeline

let kind_insn = 0
let kind_uop = 1
let kind_region = 2
let kind_translation = 3

type t = {
  latency : Hist.t;
  ring : Ring.t;
  jsonl : out_channel option;
  mutable n_events : int;
}

let create ?(ring_capacity = 1024) ?jsonl () =
  { latency = Hist.create (); ring = Ring.create ring_capacity; jsonl; n_events = 0 }

let emit_line t json =
  match t.jsonl with
  | None -> ()
  | Some oc ->
      Json.to_channel ~pretty:false oc json;
      output_char oc '\n'

let region_event_json t label event =
  if t.jsonl <> None then
    let fields =
      [ ("seq", Json.Int t.n_events); ("type", Json.Str "region"); ("label", Json.Str label) ]
      @
      match event with
      | `Scalar_call -> [ ("event", Json.Str "scalar_call") ]
      | `Ucode_call -> [ ("event", Json.Str "ucode_call") ]
      | `Translated w ->
          [ ("event", Json.Str "translated"); ("width", Json.Int w) ]
      | `Aborted a ->
          [
            ("event", Json.Str "aborted");
            ("abort", Json.Str (Liquid_translate.Abort.to_string a));
          ]
    in
    emit_line t (Json.Obj fields)

let on_trace t ev =
  t.n_events <- t.n_events + 1;
  match ev with
  | Cpu.T_insn { pc; _ } ->
      Ring.push t.ring ~kind:kind_insn ~a:pc ~b:0 ~c:0
  | Cpu.T_uop { entry; index; _ } ->
      Ring.push t.ring ~kind:kind_uop ~a:entry ~b:index ~c:0
  | Cpu.T_region { label; event } ->
      let code, b =
        match event with
        | `Scalar_call -> (0, 0)
        | `Ucode_call -> (1, 0)
        | `Translated w -> (2, w)
        | `Aborted _ -> (3, 0)
      in
      Ring.push t.ring ~kind:kind_region ~a:code ~b ~c:0;
      region_event_json t label event
  | Cpu.T_translation { entry; label; width; uops; latency } ->
      Hist.add t.latency latency;
      Ring.push t.ring ~kind:kind_translation ~a:entry ~b:latency ~c:uops;
      if t.jsonl <> None then
        emit_line t
          (Json.Obj
             [
               ("seq", Json.Int t.n_events);
               ("type", Json.Str "translation");
               ("label", Json.Str label);
               ("entry", Json.Int entry);
               ("width", Json.Int width);
               ("uops", Json.Int uops);
               ("latency_cycles", Json.Int latency);
             ])

let wrap t (config : Cpu.config) =
  let hook =
    match config.Cpu.on_trace with
    | None -> on_trace t
    | Some existing ->
        fun ev ->
          existing ev;
          on_trace t ev
  in
  { config with Cpu.on_trace = Some hook }

let translation_latency t = t.latency
let ring t = t.ring
let events t = t.n_events
