(* Dead-API lint, attached to the [runtest] alias beside [doc_lint].

   An exported [val] that nothing outside its own module uses is API
   surface that costs reading and maintenance and proves nothing. This
   check lists every top-level [val] of every interface under lib/ and
   fails when its name occurs, as a whole word, in no .ml/.mli file
   outside the module's own [.ml]/[.mli] pair. The search covers lib,
   bin, bench, test, examples and perfbench: any mention counts,
   comments included, so the check errs towards keeping a name.

   Deliberate API with no in-repo caller goes on [allowlist] below, one
   entry per name with the reason it stays.

   Usage: [api_lint.exe ROOT], with ROOT the repository root. Exit
   status is non-zero with a file:line listing when a name is unused. *)

let searched = [ "lib"; "bin"; "bench"; "test"; "examples"; "perfbench" ]

(* "lib/<dir>/<module>.mli", "<val>": deliberately exported although no
   other module refers to it. *)
let allowlist : (string * string) list = []

let read_file file =
  let ic = open_in_bin file in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

(* Every identifier-shaped word of [text], [f] called once per word. *)
let iter_words text f =
  let n = String.length text in
  let i = ref 0 in
  while !i < n do
    if is_ident_char text.[!i] then begin
      let j = ref !i in
      while !j < n && is_ident_char text.[!j] do
        incr j
      done;
      f (String.sub text !i (!j - !i));
      i := !j
    end
    else incr i
  done

let rec walk dir f =
  Array.iter
    (fun entry ->
      let path = Filename.concat dir entry in
      if Sys.is_directory path then begin
        if entry <> "_build" && entry.[0] <> '.' then walk path f
      end
      else if
        Filename.check_suffix entry ".ml" || Filename.check_suffix entry ".mli"
      then f path)
    (Sys.readdir dir)

(* A module's [.ml] and [.mli] share this key. *)
let pair_key path = Filename.remove_extension path

(* The name declared by a top-level [val] line, if any (operators are
   skipped: they are used by symbol, not by name). *)
let val_name line =
  let p = "val " in
  let lp = String.length p in
  if String.length line > lp && String.sub line 0 lp = p then
    let rest = String.sub line lp (String.length line - lp) in
    let j = ref 0 in
    while !j < String.length rest && is_ident_char rest.[!j] do
      incr j
    done;
    if !j = 0 then None else Some (String.sub rest 0 !j)
  else None

let () =
  let root = if Array.length Sys.argv > 1 then Sys.argv.(1) else ".." in
  let rel path =
    let r = Filename.concat root "" in
    let lr = String.length r in
    if String.length path >= lr && String.sub path 0 lr = r then
      String.sub path lr (String.length path - lr)
    else path
  in
  (* word -> module pairs whose text contains it *)
  let users : (string, string list) Hashtbl.t = Hashtbl.create 8192 in
  let files = ref [] in
  List.iter
    (fun d ->
      let dir = Filename.concat root d in
      if Sys.file_exists dir then
        walk dir (fun path ->
            let path = rel path in
            files := path :: !files;
            let key = pair_key path in
            iter_words
              (read_file (Filename.concat root path))
              (fun w ->
                match Hashtbl.find_opt users w with
                | Some (k :: _) when k = key -> ()
                | Some ks -> if not (List.mem key ks) then Hashtbl.replace users w (key :: ks)
                | None -> Hashtbl.replace users w [ key ])))
    searched;
  let errors = ref 0 and vals = ref 0 in
  List.iter
    (fun path ->
      if
        Filename.check_suffix path ".mli"
        && String.length path > 4
        && String.sub path 0 4 = "lib/"
      then begin
        let key = pair_key path in
        List.iteri
          (fun i line ->
            match val_name line with
            | None -> ()
            | Some name ->
                incr vals;
                let used_elsewhere =
                  match Hashtbl.find_opt users name with
                  | Some ks -> List.exists (fun k -> k <> key) ks
                  | None -> false
                in
                if not (used_elsewhere || List.mem (path, name) allowlist) then begin
                  incr errors;
                  Printf.eprintf
                    "%s:%d: val %s is not used outside its own module\n" path
                    (i + 1) name
                end)
          (String.split_on_char '\n' (read_file (Filename.concat root path)))
      end)
    (List.sort compare !files);
  if !vals = 0 then begin
    Printf.eprintf "api_lint: no exported vals found under %s/lib\n" root;
    exit 1
  end;
  if !errors > 0 then begin
    Printf.eprintf "api_lint: %d unused export(s) of %d\n" !errors !vals;
    exit 1
  end
  else Printf.printf "api_lint: %d exports, all used\n" !vals
