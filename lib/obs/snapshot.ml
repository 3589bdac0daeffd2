open Liquid_machine
open Liquid_pipeline

type region = {
  r_label : string;
  r_entry : int;
  r_calls : int;
  r_ucode_served : int;
  r_scalar_calls : int;
  r_outcome : string;
  r_width : int;
  r_uops : int;
}

type t = {
  s_label : string;
  s_variant : string;
  s_stats : Stats.t;
  s_icache : Cache.counters option;
  s_dcache : Cache.counters option;
  s_bpred : Branch_pred.counters;
  s_ucache : Ucode_cache.counters;
  s_regions : region list;
  s_superblocks_compiled : int;
  s_superblock_iters : int;
  s_superblock_bailouts : int;
  s_pred_fast : int;
  s_pred_masked : int;
  s_governed_execs : int;
  s_permutes_seen : int;
  s_permutes_recovered : int;
  s_permutes_aborted : int;
  s_tbl_index_builds : int;
  s_latency_hist : Hist.t;
  s_gap_hist : Hist.t;
  s_uops_hist : Hist.t;
}

let region_of_report (r : Cpu.region_report) =
  let calls = List.length r.Cpu.calls in
  let outcome, width, uops =
    match r.Cpu.outcome with
    | Cpu.R_untried -> ("untried", 0, 0)
    | Cpu.R_installed { width; uops } -> ("installed", width, uops)
    | Cpu.R_failed a ->
        ("failed: " ^ Liquid_translate.Abort.to_string a, 0, 0)
  in
  {
    r_label = r.Cpu.label;
    r_entry = r.Cpu.entry;
    r_calls = calls;
    r_ucode_served = r.Cpu.ucode_served;
    r_scalar_calls = calls - r.Cpu.ucode_served;
    r_outcome = outcome;
    r_width = width;
    r_uops = uops;
  }

let of_run ?(label = "run") ?(variant = "unknown") ?collector (run : Cpu.run) =
  let gap = Hist.create () in
  List.iter
    (fun (r : Cpu.region_report) ->
      let rec gaps = function
        | (_, fin) :: ((start, _) :: _ as rest) ->
            Hist.add gap (start - fin);
            gaps rest
        | _ -> ()
      in
      gaps r.Cpu.calls)
    run.Cpu.regions;
  let uops_hist = Hist.create () in
  List.iter
    (fun (r : Cpu.region_report) ->
      match r.Cpu.outcome with
      | Cpu.R_installed { uops; _ } -> Hist.add uops_hist uops
      | _ -> ())
    run.Cpu.regions;
  let latency =
    match collector with
    | Some c ->
        let h = Hist.create () in
        Hist.merge h (Collector.translation_latency c);
        h
    | None -> Hist.create ()
  in
  {
    s_label = label;
    s_variant = variant;
    s_stats = Stats.copy run.Cpu.stats;
    s_icache = run.Cpu.icache_counters;
    s_dcache = run.Cpu.dcache_counters;
    s_bpred = run.Cpu.bpred_counters;
    s_ucache = run.Cpu.ucache_counters;
    s_regions = List.map region_of_report run.Cpu.regions;
    s_superblocks_compiled = run.Cpu.superblocks_compiled;
    s_superblock_iters = run.Cpu.superblock_iters;
    s_superblock_bailouts = run.Cpu.superblock_bailouts;
    s_pred_fast = run.Cpu.pred_fast_iters;
    s_pred_masked = run.Cpu.pred_masked_iters;
    s_governed_execs = run.Cpu.governed_execs;
    s_permutes_seen = run.Cpu.permutes_seen;
    s_permutes_recovered = run.Cpu.permutes_recovered;
    s_permutes_aborted = run.Cpu.permutes_aborted;
    s_tbl_index_builds = run.Cpu.tbl_index_builds;
    s_latency_hist = latency;
    s_gap_hist = gap;
    s_uops_hist = uops_hist;
  }

let invariant_count = 12

let violations t =
  let s = t.s_stats in
  let bad = ref [] in
  let check name cond detail =
    if not cond then bad := Printf.sprintf "%s: %s" name (detail ()) :: !bad
  in
  check "insn-conservation"
    (s.Stats.scalar_insns + s.Stats.vector_insns
    = s.Stats.fetches + s.Stats.uops_retired) (fun () ->
      Printf.sprintf "scalar %d + vector %d <> fetches %d + uops %d"
        s.Stats.scalar_insns s.Stats.vector_insns s.Stats.fetches
        s.Stats.uops_retired);
  (match t.s_icache with
  | None ->
      check "icache-mirror"
        (s.Stats.icache_hits = 0 && s.Stats.icache_misses = 0) (fun () ->
          "no instruction cache but stats report icache traffic")
  | Some c ->
      check "icache-mirror"
        (s.Stats.icache_hits = c.Cache.c_hits
        && s.Stats.icache_misses = c.Cache.c_misses) (fun () ->
          Printf.sprintf "stats %d/%d <> cache %d/%d" s.Stats.icache_hits
            s.Stats.icache_misses c.Cache.c_hits c.Cache.c_misses);
      check "icache-fetches"
        (c.Cache.c_hits + c.Cache.c_misses = s.Stats.fetches) (fun () ->
          Printf.sprintf "hits %d + misses %d <> fetches %d" c.Cache.c_hits
            c.Cache.c_misses s.Stats.fetches));
  (match t.s_dcache with
  | None ->
      check "dcache-mirror"
        (s.Stats.dcache_hits = 0 && s.Stats.dcache_misses = 0) (fun () ->
          "no data cache but stats report dcache traffic")
  | Some c ->
      check "dcache-mirror"
        (s.Stats.dcache_hits = c.Cache.c_hits
        && s.Stats.dcache_misses = c.Cache.c_misses) (fun () ->
          Printf.sprintf "stats %d/%d <> cache %d/%d" s.Stats.dcache_hits
            s.Stats.dcache_misses c.Cache.c_hits c.Cache.c_misses));
  check "branch-mirror"
    (s.Stats.branches = t.s_bpred.Branch_pred.p_lookups
    && s.Stats.branch_mispredicts = t.s_bpred.Branch_pred.p_mispredicts
    && s.Stats.branch_mispredicts <= s.Stats.branches) (fun () ->
      Printf.sprintf "stats %d/%d <> predictor %d/%d" s.Stats.branches
        s.Stats.branch_mispredicts t.s_bpred.Branch_pred.p_lookups
        t.s_bpred.Branch_pred.p_mispredicts);
  let region_calls =
    List.fold_left (fun acc r -> acc + r.r_calls) 0 t.s_regions
  in
  let served =
    List.fold_left (fun acc r -> acc + r.r_ucode_served) 0 t.s_regions
  in
  check "region-calls"
    (region_calls = s.Stats.region_calls
    && List.for_all
         (fun r -> r.r_scalar_calls >= 0 && r.r_ucode_served <= r.r_calls)
         t.s_regions) (fun () ->
      Printf.sprintf "region timelines %d calls <> stats %d" region_calls
        s.Stats.region_calls);
  check "ucode-hits"
    (served = s.Stats.ucode_hits && s.Stats.ucode_hits <= s.Stats.region_calls)
    (fun () ->
      Printf.sprintf "region timelines %d served <> stats %d hits" served
        s.Stats.ucode_hits);
  let u = t.s_ucache in
  check "ucache-mirror"
    (s.Stats.ucode_installs = u.Ucode_cache.u_installs
    && s.Stats.ucode_evictions = u.Ucode_cache.u_evictions) (fun () ->
      Printf.sprintf "stats %d/%d <> ucache %d/%d" s.Stats.ucode_installs
        s.Stats.ucode_evictions u.Ucode_cache.u_installs
        u.Ucode_cache.u_evictions);
  check "ucache-occupancy"
    (u.Ucode_cache.u_installs
     = u.Ucode_cache.u_replacements + u.Ucode_cache.u_evictions
       + u.Ucode_cache.u_occupancy
    && u.Ucode_cache.u_occupancy <= u.Ucode_cache.u_max_occupancy) (fun () ->
      Printf.sprintf "installs %d <> replacements %d + evictions %d + occupancy %d (max %d)"
        u.Ucode_cache.u_installs u.Ucode_cache.u_replacements
        u.Ucode_cache.u_evictions u.Ucode_cache.u_occupancy
        u.Ucode_cache.u_max_occupancy);
  let session_slack =
    s.Stats.translations_started - s.Stats.ucode_installs
    - s.Stats.translations_aborted
  in
  check "translation-sessions"
    ((session_slack = 0 || session_slack = 1)
    || (s.Stats.translations_started = 0 && s.Stats.translations_aborted = 0))
    (fun () ->
      Printf.sprintf "started %d, installs %d, aborted %d"
        s.Stats.translations_started s.Stats.ucode_installs
        s.Stats.translations_aborted);
  let gap_pairs =
    List.fold_left
      (fun acc r -> acc + max 0 (r.r_calls - 1))
      0 t.s_regions
  in
  check "gap-samples"
    (Hist.count t.s_gap_hist = gap_pairs) (fun () ->
      Printf.sprintf "gap histogram holds %d samples, expected %d"
        (Hist.count t.s_gap_hist) gap_pairs);
  check "pred-conservation"
    (t.s_pred_fast + t.s_pred_masked = t.s_governed_execs) (fun () ->
      Printf.sprintf "fast %d + masked %d <> dispatched %d" t.s_pred_fast
        t.s_pred_masked t.s_governed_execs);
  check "perm-conservation"
    (t.s_permutes_recovered + t.s_permutes_aborted = t.s_permutes_seen)
    (fun () ->
      Printf.sprintf "recovered %d + aborted %d <> seen %d"
        t.s_permutes_recovered t.s_permutes_aborted t.s_permutes_seen);
  List.rev !bad

let stats_fields (s : Stats.t) =
  [
    ("cycles", s.Stats.cycles);
    ("fetches", s.Stats.fetches);
    ("scalar_insns", s.Stats.scalar_insns);
    ("vector_insns", s.Stats.vector_insns);
    ("uops_retired", s.Stats.uops_retired);
    ("loads", s.Stats.loads);
    ("stores", s.Stats.stores);
    ("branches", s.Stats.branches);
    ("branch_mispredicts", s.Stats.branch_mispredicts);
    ("icache_hits", s.Stats.icache_hits);
    ("icache_misses", s.Stats.icache_misses);
    ("dcache_hits", s.Stats.dcache_hits);
    ("dcache_misses", s.Stats.dcache_misses);
    ("region_calls", s.Stats.region_calls);
    ("ucode_hits", s.Stats.ucode_hits);
    ("ucode_installs", s.Stats.ucode_installs);
    ("ucode_evictions", s.Stats.ucode_evictions);
    ("translations_started", s.Stats.translations_started);
    ("translations_aborted", s.Stats.translations_aborted);
    ("translation_busy_cycles", s.Stats.translation_busy_cycles);
  ]

let cache_json = function
  | None -> Json.Null
  | Some c ->
      Json.Obj
        [ ("hits", Json.Int c.Cache.c_hits); ("misses", Json.Int c.Cache.c_misses) ]

let region_json r =
  Json.Obj
    [
      ("label", Json.Str r.r_label);
      ("entry", Json.Int r.r_entry);
      ("calls", Json.Int r.r_calls);
      ("ucode_served", Json.Int r.r_ucode_served);
      ("scalar_calls", Json.Int r.r_scalar_calls);
      ("outcome", Json.Str r.r_outcome);
      ("width", Json.Int r.r_width);
      ("uops", Json.Int r.r_uops);
    ]

let to_json t =
  let viols = violations t in
  Json.Obj
    [
      ("schema", Json.Str "liquid-obs-snapshot/1");
      ("label", Json.Str t.s_label);
      ("variant", Json.Str t.s_variant);
      ( "stats",
        Json.Obj
          (List.map (fun (k, v) -> (k, Json.Int v)) (stats_fields t.s_stats))
      );
      ("icache", cache_json t.s_icache);
      ("dcache", cache_json t.s_dcache);
      ( "branch_pred",
        Json.Obj
          [
            ("lookups", Json.Int t.s_bpred.Branch_pred.p_lookups);
            ("mispredicts", Json.Int t.s_bpred.Branch_pred.p_mispredicts);
          ] );
      ( "ucode_cache",
        Json.Obj
          [
            ("installs", Json.Int t.s_ucache.Ucode_cache.u_installs);
            ("replacements", Json.Int t.s_ucache.Ucode_cache.u_replacements);
            ("evictions", Json.Int t.s_ucache.Ucode_cache.u_evictions);
            ("occupancy", Json.Int t.s_ucache.Ucode_cache.u_occupancy);
            ("max_occupancy", Json.Int t.s_ucache.Ucode_cache.u_max_occupancy);
          ] );
      ("regions", Json.List (List.map region_json t.s_regions));
      ( "superblocks",
        Json.Obj
          [
            ("compiled", Json.Int t.s_superblocks_compiled);
            ("iterations", Json.Int t.s_superblock_iters);
            ("bailouts", Json.Int t.s_superblock_bailouts);
          ] );
      ( "predication",
        Json.Obj
          [
            ("fast_iters", Json.Int t.s_pred_fast);
            ("masked_iters", Json.Int t.s_pred_masked);
            ("dispatched", Json.Int t.s_governed_execs);
          ] );
      ( "permutation",
        Json.Obj
          [
            ("seen", Json.Int t.s_permutes_seen);
            ("recovered", Json.Int t.s_permutes_recovered);
            ("aborted", Json.Int t.s_permutes_aborted);
            ("tbl_index_builds", Json.Int t.s_tbl_index_builds);
          ] );
      ( "histograms",
        Json.Obj
          [
            ("translation_latency_cycles", Hist.to_json t.s_latency_hist);
            ("inter_call_gap_cycles", Hist.to_json t.s_gap_hist);
            ("region_uops", Hist.to_json t.s_uops_hist);
          ] );
      ( "invariants",
        Json.Obj
          [
            ("checked", Json.Int invariant_count);
            ("violations", Json.List (List.map (fun v -> Json.Str v) viols));
          ] );
    ]

let to_csv t =
  let buf = Buffer.create 1024 in
  let quote s =
    if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
      "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
    else s
  in
  let row k v = Buffer.add_string buf (Printf.sprintf "%s,%s\n" (quote k) v) in
  let int_row k v = row k (string_of_int v) in
  row "key" "value";
  row "label" (quote t.s_label);
  row "variant" (quote t.s_variant);
  List.iter (fun (k, v) -> int_row ("stats." ^ k) v) (stats_fields t.s_stats);
  (match t.s_icache with
  | None -> ()
  | Some c ->
      int_row "icache.hits" c.Cache.c_hits;
      int_row "icache.misses" c.Cache.c_misses);
  (match t.s_dcache with
  | None -> ()
  | Some c ->
      int_row "dcache.hits" c.Cache.c_hits;
      int_row "dcache.misses" c.Cache.c_misses);
  int_row "branch_pred.lookups" t.s_bpred.Branch_pred.p_lookups;
  int_row "branch_pred.mispredicts" t.s_bpred.Branch_pred.p_mispredicts;
  int_row "ucode_cache.installs" t.s_ucache.Ucode_cache.u_installs;
  int_row "ucode_cache.replacements" t.s_ucache.Ucode_cache.u_replacements;
  int_row "ucode_cache.evictions" t.s_ucache.Ucode_cache.u_evictions;
  int_row "ucode_cache.occupancy" t.s_ucache.Ucode_cache.u_occupancy;
  int_row "ucode_cache.max_occupancy" t.s_ucache.Ucode_cache.u_max_occupancy;
  int_row "superblocks.compiled" t.s_superblocks_compiled;
  int_row "superblocks.iterations" t.s_superblock_iters;
  int_row "superblocks.bailouts" t.s_superblock_bailouts;
  int_row "predication.fast_iters" t.s_pred_fast;
  int_row "predication.masked_iters" t.s_pred_masked;
  int_row "predication.dispatched" t.s_governed_execs;
  int_row "permutation.seen" t.s_permutes_seen;
  int_row "permutation.recovered" t.s_permutes_recovered;
  int_row "permutation.aborted" t.s_permutes_aborted;
  int_row "permutation.tbl_index_builds" t.s_tbl_index_builds;
  List.iter
    (fun r ->
      let p k v = int_row (Printf.sprintf "region.%s.%s" r.r_label k) v in
      p "calls" r.r_calls;
      p "ucode_served" r.r_ucode_served;
      p "scalar_calls" r.r_scalar_calls;
      row (Printf.sprintf "region.%s.outcome" r.r_label) (quote r.r_outcome);
      p "width" r.r_width;
      p "uops" r.r_uops)
    t.s_regions;
  let hist name h =
    int_row (name ^ ".count") (Hist.count h);
    int_row (name ^ ".total") (Hist.total h);
    int_row (name ^ ".min") (Hist.min_value h);
    int_row (name ^ ".max") (Hist.max_value h);
    row (name ^ ".mean") (Printf.sprintf "%.3f" (Hist.mean h));
    Hist.iter_buckets h (fun ~lo ~hi ~count ->
        int_row (Printf.sprintf "%s.bucket.%d-%d" name lo hi) count)
  in
  hist "hist.translation_latency_cycles" t.s_latency_hist;
  hist "hist.inter_call_gap_cycles" t.s_gap_hist;
  hist "hist.region_uops" t.s_uops_hist;
  List.iter
    (fun v -> row "invariant.violation" (quote v))
    (violations t);
  Buffer.contents buf
