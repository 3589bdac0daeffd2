type config = { size_bytes : int; line_bytes : int; assoc : int }

let arm926_config = { size_bytes = 16 * 1024; line_bytes = 32; assoc = 64 }

(* Exact LRU in O(1) per access (expected, growth amortized), whatever
   the associativity.

   A resident line lives in a slot: [lines.(s)] is its line number and
   [next]/[prev] link the slots of one set into a circular recency ring.
   [mru.(set)] is the ring's head (the most recently used line) and
   [prev.(mru.(set))] its tail (the least recently used one), so a hit
   on the head is free, a hit elsewhere is one unlink/relink, and an
   eviction reuses the tail slot and rotates the head onto it without
   touching any link.

   [index] finds a line's slot without scanning ways: an open-addressed
   (linear probing, multiplicative hash) table of slot numbers, [-1] for
   an empty bucket. Keys are compared through [lines], so no line number
   is reserved as a sentinel — [addr lsr line_shift] may be any int when
   lines are one byte wide. Deletion shifts the probe run back instead of
   leaving tombstones, so probe lengths stay bounded by the load factor
   (at most one half).

   Allocation grows with the lines actually resident, not with the
   geometry: the slot arrays start at [min_slots] and double, up to
   [n_sets * assoc]; the index doubles with them. Short simulations
   touch far fewer lines than the 512 an ARM926 cache holds, and the
   fuzzer runs thousands of them. Slots are only freed by [flush]; an
   eviction hands its slot to the incoming line. *)
type t = {
  cfg : config;
  line_shift : int;
  n_sets : int;
  mru : int array;  (* per set: ring head slot, -1 while the set is empty *)
  fill : int array;  (* per set: resident lines *)
  mutable lines : int array;  (* per slot: line number *)
  mutable next : int array;  (* per slot: next less recently used slot *)
  mutable prev : int array;  (* per slot: next more recently used slot *)
  mutable used : int;  (* slots handed out *)
  mutable index : int array;  (* bucket -> slot, -1 = empty *)
  mutable hash_shift : int;  (* Sys.int_size - log2 (Array.length index) *)
  mutable hits : int;
  mutable misses : int;
}

type outcome = Hit | Miss

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let min_slots = 8

(* Fibonacci hashing: the top bits of the product spread the runs of
   consecutive (and power-of-two strided) line numbers that programs
   touch across the whole table. *)
let[@inline] bucket t line = (line * 0x1E3779B97F4A7C15) lsr t.hash_shift

(* log2 of the smallest power of two holding twice [slots] buckets
   (load factor <= 1/2). *)
let index_bits slots = log2 ((2 * slots) - 1) + 1

let create cfg =
  if not (is_pow2 cfg.line_bytes) then
    invalid_arg "Cache.create: line size must be a power of two";
  if cfg.assoc <= 0 then
    invalid_arg "Cache.create: associativity must be positive";
  let n_sets = cfg.size_bytes / (cfg.line_bytes * cfg.assoc) in
  if n_sets < 1 then invalid_arg "Cache.create: capacity below one set";
  if not (is_pow2 n_sets) then
    invalid_arg "Cache.create: set count must be a power of two";
  let slots = min min_slots (n_sets * cfg.assoc) in
  let bits = index_bits slots in
  {
    cfg;
    line_shift = log2 cfg.line_bytes;
    n_sets;
    mru = Array.make n_sets (-1);
    fill = Array.make n_sets 0;
    lines = Array.make slots 0;
    next = Array.make slots 0;
    prev = Array.make slots 0;
    used = 0;
    index = Array.make (1 lsl bits) (-1);
    hash_shift = Sys.int_size - bits;
    hits = 0;
    misses = 0;
  }

let config t = t.cfg

(* The slot holding [line], or -1. *)
let find t line =
  let index = t.index in
  let mask = Array.length index - 1 in
  let lines = t.lines in
  let i = ref (bucket t line) in
  let s = ref (Array.unsafe_get index !i) in
  while !s >= 0 && Array.unsafe_get lines !s <> line do
    i := (!i + 1) land mask;
    s := Array.unsafe_get index !i
  done;
  !s

let insert t slot =
  let index = t.index in
  let mask = Array.length index - 1 in
  let i = ref (bucket t (Array.unsafe_get t.lines slot)) in
  while Array.unsafe_get index !i >= 0 do i := (!i + 1) land mask done;
  Array.unsafe_set index !i slot

(* Backward-shift deletion: walk the probe run after the hole and pull
   back every entry whose home bucket does not lie cyclically in
   (hole, j], so no later lookup stops early at the hole. *)
let remove t slot =
  let index = t.index in
  let mask = Array.length index - 1 in
  let lines = t.lines in
  let hole = ref (bucket t (Array.unsafe_get lines slot)) in
  while Array.unsafe_get index !hole <> slot do
    hole := (!hole + 1) land mask
  done;
  let j = ref ((!hole + 1) land mask) in
  while Array.unsafe_get index !j >= 0 do
    let s = Array.unsafe_get index !j in
    let home = bucket t (Array.unsafe_get lines s) in
    let movable =
      if !hole <= !j then home <= !hole || home > !j
      else home <= !hole && home > !j
    in
    if movable then begin
      Array.unsafe_set index !hole s;
      hole := !j
    end;
    j := (!j + 1) land mask
  done;
  Array.unsafe_set index !hole (-1)

let extend a n = Array.append a (Array.make (n - Array.length a) 0)

(* Double the slot arrays (capped at the capacity in lines) and, when
   the index would pass half full, rebuild it at the matching size. *)
let grow t =
  let slots = min (2 * Array.length t.lines) (t.n_sets * t.cfg.assoc) in
  t.lines <- extend t.lines slots;
  t.next <- extend t.next slots;
  t.prev <- extend t.prev slots;
  let bits = index_bits slots in
  if 1 lsl bits > Array.length t.index then begin
    t.index <- Array.make (1 lsl bits) (-1);
    t.hash_shift <- Sys.int_size - bits;
    for s = 0 to t.used - 1 do insert t s done
  end

(* Link [s] into the ring headed by [h] just before it, i.e. at the LRU
   end; making it the head afterwards makes it the MRU line. *)
let[@inline] link_before t s h =
  let p = Array.unsafe_get t.prev h in
  Array.unsafe_set t.next p s;
  Array.unsafe_set t.prev s p;
  Array.unsafe_set t.next s h;
  Array.unsafe_set t.prev h s

(* A hit on [s], which is not the head [h] of [set]'s ring. *)
let touch t set h s =
  (if Array.unsafe_get t.prev h <> s then begin
     let p = Array.unsafe_get t.prev s and n = Array.unsafe_get t.next s in
     Array.unsafe_set t.next p n;
     Array.unsafe_set t.prev n p;
     link_before t s h
   end);
  (* when [s] was the tail, it already sits just before [h]: rotating
     the head onto it is the whole update *)
  Array.unsafe_set t.mru set s

let miss t set line =
  let h = Array.unsafe_get t.mru set in
  let n = Array.unsafe_get t.fill set in
  if n < t.cfg.assoc then begin
    if t.used = Array.length t.lines then grow t;
    let s = t.used in
    t.used <- s + 1;
    Array.unsafe_set t.lines s line;
    insert t s;
    if h < 0 then begin
      Array.unsafe_set t.next s s;
      Array.unsafe_set t.prev s s
    end
    else link_before t s h;
    Array.unsafe_set t.mru set s;
    Array.unsafe_set t.fill set (n + 1)
  end
  else begin
    (* evict the tail and rotate the head onto its slot *)
    let v = Array.unsafe_get t.prev h in
    remove t v;
    Array.unsafe_set t.lines v line;
    insert t v;
    Array.unsafe_set t.mru set v
  end

let access t addr =
  let line = addr lsr t.line_shift in
  let set = line land (t.n_sets - 1) in
  let s = find t line in
  if s >= 0 then begin
    let h = Array.unsafe_get t.mru set in
    if s <> h then touch t set h s;
    t.hits <- t.hits + 1;
    Hit
  end
  else begin
    miss t set line;
    t.misses <- t.misses + 1;
    Miss
  end

(* Consecutive fetches of the same line always hit: the block engine
   performs one real [access] per line run and credits the rest here.
   No recency update is needed — the line is already its set's MRU, and
   within the run no other line of the set is accessed. *)
let credit_hits t n = t.hits <- t.hits + n

let line_bytes t = t.cfg.line_bytes

let set_of t addr = (addr lsr t.line_shift) land (t.n_sets - 1)

let lines_spanned t ~addr ~bytes =
  if bytes <= 0 then 0
  else
    let first = addr lsr t.line_shift in
    let last = (addr + bytes - 1) lsr t.line_shift in
    last - first + 1

let hits t = t.hits
let misses t = t.misses

type counters = { c_hits : int; c_misses : int }

let counters t = { c_hits = t.hits; c_misses = t.misses }

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0

let flush t =
  Array.fill t.index 0 (Array.length t.index) (-1);
  Array.fill t.mru 0 t.n_sets (-1);
  Array.fill t.fill 0 t.n_sets 0;
  t.used <- 0
