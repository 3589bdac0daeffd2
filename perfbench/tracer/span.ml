(* In-memory span recorder. Each domain appends to its own buffer, so
   recording takes no lock on the hot path; buffers register once, and
   everything is written out only when the replay has finished. *)

type t = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;  (* 0 = root *)
  job : string;
}

type domain_state = {
  mutable stack : int list;  (* open span ids, innermost first *)
  mutable job : string;  (* job id inherited by child spans *)
  mutable spans : t list;
}

let next_id = Atomic.make 1
let registry = ref []
let registry_mutex = Mutex.create ()

let key =
  Domain.DLS.new_key (fun () ->
      let st = { stack = []; job = ""; spans = [] } in
      Mutex.protect registry_mutex (fun () -> registry := st :: !registry);
      st)

let now = Unix.gettimeofday

(* [record ?job name f] runs [f] inside a span; [job] sets the job id
   for this span and every span opened under it. *)
let record ?job name f =
  let st = Domain.DLS.get key in
  let id = Atomic.fetch_and_add next_id 1 in
  let parent = match st.stack with p :: _ -> p | [] -> 0 in
  let outer_job = st.job in
  Option.iter (fun j -> st.job <- j) job;
  st.stack <- id :: st.stack;
  let start = now () in
  let finish () =
    let stop = now () in
    st.spans <- { id; name; start; stop; parent; job = st.job } :: st.spans;
    st.stack <- List.tl st.stack;
    st.job <- outer_job
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let all () =
  Mutex.protect registry_mutex (fun () ->
      List.concat_map (fun st -> st.spans) !registry)
  |> List.sort (fun a b -> compare a.id b.id)

let write path =
  let module Json = Liquid_obs.Json in
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          Json.to_channel ~pretty:false oc
            (Json.Obj
               [
                 ("id", Json.Int s.id);
                 ("name", Json.Str s.name);
                 ("start", Json.Float s.start);
                 ("end", Json.Float s.stop);
                 ("parent", Json.Int s.parent);
                 ("job", Json.Str s.job);
               ]);
          output_char oc '\n')
        (all ()))
