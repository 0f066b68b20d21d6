let levenshtein (type a) (equal : a -> a -> bool) (a : a array) (b : a array) =
  let n = Array.length a and m = Array.length b in
  if n = 0 then m
  else if m = 0 then n
  else begin
    (* one-row dynamic program *)
    let prev = Array.init (m + 1) Fun.id in
    let cur = Array.make (m + 1) 0 in
    for i = 1 to n do
      cur.(0) <- i;
      for j = 1 to m do
        let cost = if equal a.(i - 1) b.(j - 1) then 0 else 1 in
        cur.(j) <- min (min (cur.(j - 1) + 1) (prev.(j) + 1)) (prev.(j - 1) + cost)
      done;
      Array.blit cur 0 prev 0 (m + 1)
    done;
    prev.(m)
  end

(* the same one-row program, monomorphic on int symbols: no equality
   closure, no polymorphic dispatch in the inner loop *)
let levenshtein_ints (a : int array) (b : int array) =
  let n = Array.length a and m = Array.length b in
  if n = 0 then m
  else if m = 0 then n
  else begin
    let prev = Array.init (m + 1) Fun.id in
    let cur = Array.make (m + 1) 0 in
    for i = 1 to n do
      cur.(0) <- i;
      let ai = Array.unsafe_get a (i - 1) in
      for j = 1 to m do
        let cost = if ai = Array.unsafe_get b (j - 1) then 0 else 1 in
        let del = Array.unsafe_get prev j + 1 in
        let ins = Array.unsafe_get cur (j - 1) + 1 in
        let sub = Array.unsafe_get prev (j - 1) + cost in
        Array.unsafe_set cur j (min (min ins del) sub)
      done;
      Array.blit cur 0 prev 0 (m + 1)
    done;
    prev.(m)
  end

(* ---- Myers / Hyyrö bit-parallel Levenshtein ----------------------------

   Classic bit-vector algorithm (Myers 1999, blocked form after Hyyrö
   2003): the DP column deltas against the *pattern* are packed into
   machine words (Pv = positive deltas, Mv = negative) and one text
   symbol advances the whole column with O(1) word operations per
   block, i.e. O(nm/w) total.  We use w = 62 payload bits per block
   (OCaml native ints carry 63; keeping one bit of headroom lets the
   carry of the internal addition be masked off explicitly instead of
   wrapping through the sign bit).

   Symbols are non-negative ints (a per-matrix interning in Features).
   The pattern side is a compact open-addressed table over the pattern's
   {e distinct} symbols only, so its size is O(m + m²/w) whatever the
   alphabet: [2^bits] slots of [stride = blocks + 1] words each, slot
   [s] holding its key at [table.(s * stride)] (-1 = empty) and the
   symbol's position bitmask, one word per block, right after it.  A
   lookup stops at the key or at the first empty slot; an empty slot's
   masks are all zero, so a symbol absent from the pattern reads the
   zero column without a branch of its own.  The table is immutable
   once built and the kernel allocates its own two column vectors, so
   one pattern may be read from any number of threads or domains. *)

let word_bits = 62
let word_mask = (1 lsl word_bits) - 1

let myers_blocks m = (m + word_bits - 1) / word_bits

type pattern = {
  len : int;
  blocks : int;
  bits : int;  (* log2 of the slot count *)
  table : int array;
}

(* Fibonacci hashing: the top [bits] bits of a 63-bit product *)
let slot_of ~bits sym = (sym * 0x2545F4914F6CDD1D) lsr (63 - bits)

(* slot of [sym] in [table]: its own, or the empty slot ending its probe
   run, whose masks are all zero *)
let lookup table ~stride ~bits sym =
  let mask = (1 lsl bits) - 1 in
  let s = ref (slot_of ~bits sym) in
  let k = ref (Array.unsafe_get table (!s * stride)) in
  while !k <> sym && !k >= 0 do
    s := (!s + 1) land mask;
    k := Array.unsafe_get table (!s * stride)
  done;
  !s

(* smallest [bits >= 1] with [2^bits >= slots] *)
let bits_for slots =
  let bits = ref 1 in
  while 1 lsl !bits < slots do incr bits done;
  !bits

(* distinct symbols of [pat], counted in a keys-only table (stride 1) *)
let distinct_count (pat : int array) =
  let bits = bits_for (2 * Array.length pat) in
  let keys = Array.make (1 lsl bits) (-1) in
  let d = ref 0 in
  Array.iter
    (fun sym ->
      if sym < 0 then invalid_arg "D_edit.pattern: negative symbol";
      let s = lookup keys ~stride:1 ~bits sym in
      if keys.(s) < 0 then begin
        keys.(s) <- sym;
        incr d
      end)
    pat;
  !d

let pattern (pat : int array) =
  let m = Array.length pat in
  let blocks = max 1 (myers_blocks m) in
  (* at least twice as many slots as distinct symbols: load <= 1/2 *)
  let bits = bits_for (2 * distinct_count pat) in
  let stride = blocks + 1 and mask = (1 lsl bits) - 1 in
  let table = Array.make ((1 lsl bits) * stride) 0 in
  for s = 0 to mask do table.(s * stride) <- -1 done;
  Array.iteri
    (fun i sym ->
      let s = lookup table ~stride ~bits sym in
      table.(s * stride) <- sym;
      let idx = (s * stride) + 1 + (i / word_bits) in
      table.(idx) <- table.(idx) lor (1 lsl (i mod word_bits)))
    pat;
  { len = m; blocks; bits; table }

(* one block (m <= 62, the common query): the column lives in two
   registers *)
let myers_one_block p (text : int array) =
  let table = p.table and bits = p.bits in
  let last_bit = 1 lsl (p.len - 1) in
  let pv = ref word_mask and mv = ref 0 and score = ref p.len in
  for j = 0 to Array.length text - 1 do
    let s = lookup table ~stride:2 ~bits (Array.unsafe_get text j) in
    let eq = Array.unsafe_get table ((s * 2) + 1) in
    let pvb = !pv and mvb = !mv in
    let xv = eq lor mvb in
    let xh = ((((eq land pvb) + pvb) land word_mask) lxor pvb) lor eq in
    let ph = mvb lor (lnot (xh lor pvb) land word_mask) in
    let mh = pvb land xh in
    if ph land last_bit <> 0 then incr score
    else if mh land last_bit <> 0 then decr score;
    let ph = ((ph lsl 1) lor 1) land word_mask in
    let mh = (mh lsl 1) land word_mask in
    pv := mh lor (lnot (xv lor ph) land word_mask);
    mv := ph land xv
  done;
  !score

(* Levenshtein distance of the pattern against [text] *)
let myers_pattern p (text : int array) =
  let n = Array.length text and m = p.len in
  if m = 0 then n
  else if n = 0 then m
  else if p.blocks = 1 then myers_one_block p text
  else begin
    let nb = p.blocks and bits = p.bits and table = p.table in
    let stride = nb + 1 in
    (* vertical deltas, all +1 initially (column 0 of the DP table) *)
    let pv = Array.make nb word_mask in
    let mv = Array.make nb 0 in
    let score = ref m in
    (* bit of cell (m-1) inside the last block *)
    let last = nb - 1 in
    let last_bit = 1 lsl ((m - 1) mod word_bits) in
    for j = 0 to n - 1 do
      let sym = Array.unsafe_get text j in
      let base = (lookup table ~stride ~bits sym * stride) + 1 in
      (* horizontal deltas carried into the current block from below *)
      let ph_in = ref 1 and mh_in = ref 0 in
      for b = 0 to nb - 1 do
        let eq0 = Array.unsafe_get table (base + b) in
        let pvb = Array.unsafe_get pv b and mvb = Array.unsafe_get mv b in
        let xv = eq0 lor mvb in
        (* a negative horizontal delta entering the block acts like a
           match in its lowest cell *)
        let eq = eq0 lor !mh_in in
        let xh =
          ((((eq land pvb) + pvb) land word_mask) lxor pvb) lor eq
        in
        let ph = mvb lor (lnot (xh lor pvb) land word_mask) in
        let mh = pvb land xh in
        (* the DP score lives in the bottom row of the pattern: test the
           cell (m-1) bit of the pre-shift horizontal deltas *)
        if b = last then begin
          if ph land last_bit <> 0 then incr score
          else if mh land last_bit <> 0 then decr score
        end;
        let ph_out = (ph lsr (word_bits - 1)) land 1 in
        let mh_out = (mh lsr (word_bits - 1)) land 1 in
        let ph = ((ph lsl 1) lor !ph_in) land word_mask in
        let mh = ((mh lsl 1) lor !mh_in) land word_mask in
        Array.unsafe_set pv b (mh lor (lnot (xv lor ph) land word_mask));
        Array.unsafe_set mv b (ph land xv);
        ph_in := ph_out;
        mh_in := mh_out
      done
    done;
    !score
  end

let myers (a : int array) (b : int array) = myers_pattern (pattern a) b

(* ---- Ukkonen banded early-abandon variant ------------------------------

   [distance_at_most ~bound a b] is [Some d] when the edit distance [d]
   is [<= bound] and [None] otherwise, visiting only the diagonal band
   of half-width [bound]: O(bound * min(n,m)) instead of O(nm).  The
   answer, when present, is exact (not clamped), so eps-bounded callers
   can compare the true distance against their threshold. *)
let distance_at_most ~bound (a : int array) (b : int array) =
  if bound < 0 then None
  else begin
    let n = Array.length a and m = Array.length b in
    if abs (n - m) > bound then None
    else if n = 0 then (if m <= bound then Some m else None)
    else if m = 0 then (if n <= bound then Some n else None)
    else begin
      (* big = an unreachable sentinel that cannot overflow when +1 *)
      let big = max n m + bound + 1 in
      let prev = Array.make (m + 1) big in
      let cur = Array.make (m + 1) big in
      for j = 0 to min m bound do prev.(j) <- j done;
      let abandoned = ref false in
      let i = ref 1 in
      while (not !abandoned) && !i <= n do
        let ii = !i in
        let lo = max 0 (ii - bound) and hi = min m (ii + bound) in
        Array.fill cur 0 (m + 1) big;
        if lo = 0 then cur.(0) <- ii;
        let ai = a.(ii - 1) in
        let row_min = ref big in
        for j = max 1 lo to hi do
          let cost = if ai = b.(j - 1) then 0 else 1 in
          let v =
            min
              (min (cur.(j - 1) + 1) (prev.(j) + 1))
              (prev.(j - 1) + cost)
          in
          cur.(j) <- v;
          if v < !row_min then row_min := v
        done;
        if lo = 0 && cur.(0) < !row_min then row_min := cur.(0);
        if !row_min > bound then abandoned := true
        else begin
          Array.blit cur 0 prev 0 (m + 1);
          incr i
        end
      done;
      if !abandoned then None
      else if prev.(m) <= bound then Some prev.(m)
      else None
    end
  end

(* character-level DP straight off the strings: no boxed [char array]
   per call, [String.unsafe_get] in the inner loop *)
let char_distance a b =
  let n = String.length a and m = String.length b in
  if n = 0 then m
  else if m = 0 then n
  else begin
    let prev = Array.init (m + 1) Fun.id in
    let cur = Array.make (m + 1) 0 in
    for i = 1 to n do
      cur.(0) <- i;
      let ai = String.unsafe_get a (i - 1) in
      for j = 1 to m do
        let cost = if Char.equal ai (String.unsafe_get b (j - 1)) then 0 else 1 in
        let del = Array.unsafe_get prev j + 1 in
        let ins = Array.unsafe_get cur (j - 1) + 1 in
        let sub = Array.unsafe_get prev (j - 1) + cost in
        Array.unsafe_set cur j (min (min ins del) sub)
      done;
      Array.blit cur 0 prev 0 (m + 1)
    done;
    prev.(m)
  end

let token_seq s = Array.of_list (D_token.fuse (Sqlir.Lexer.tokenize s))

let token_distance a b =
  levenshtein String.equal (token_seq a) (token_seq b)

let distance a b =
  let ta = token_seq a and tb = token_seq b in
  let n = max (Array.length ta) (Array.length tb) in
  if n = 0 then 0.0
  else float_of_int (levenshtein String.equal ta tb) /. float_of_int n

let distance_q a b =
  distance (Sqlir.Printer.to_string a) (Sqlir.Printer.to_string b)
