(** Token-level Levenshtein (edit) query-string distance.

    The paper's Example 2 names the Levenshtein distance as an alternative
    query-string measure but does not develop it; we add it as an extension
    and prove (in the test suite) that the very same global-DET token map
    that preserves the Jaccard token distance also preserves this one:
    encryption maps the token {e sequence} element-wise and injectively, so
    every edit script carries over 1:1.

    Character-level Levenshtein, by contrast, is {e not} preservable by any
    token-wise scheme — ciphertext tokens have different lengths than their
    plaintexts — which is exactly why the measure must be defined on token
    sequences.  [char_distance] is provided for that demonstration.

    Three kernels compute the same integer distance (DESIGN.md §10):
    the classic one-row DP ({!levenshtein}, {!levenshtein_ints}), the
    Myers bit-parallel algorithm over non-negative int symbols
    ({!myers}, O(nm/w) with w = 62 payload bits per word) and the
    Ukkonen banded early-abandon variant ({!distance_at_most}).  The
    feature-table matrix path ({!Features}) uses Myers with a per-query
    precomputed compact {!pattern}. *)

val levenshtein : ('a -> 'a -> bool) -> 'a array -> 'a array -> int
(** Classic one-row DP under a caller-supplied equality. *)

val levenshtein_ints : int array -> int array -> int
(** {!levenshtein} specialized to interned int symbols (no equality
    closure in the inner loop); same result as
    [levenshtein Int.equal]. *)

type pattern
(** The pattern side of the Myers kernel: per distinct symbol of the
    pattern, its position bitmask, one word per 62-symbol block, in an
    open-addressed table of at least twice as many slots as the pattern
    has distinct symbols.  Its size is O(m + m²/62) words for a pattern
    of length [m], independent of the alphabet; a symbol absent from
    the pattern reads an all-zero column.  Immutable once built, so one
    pattern may be shared by every thread and domain. *)

val pattern : int array -> pattern
(** Build the table of a symbol sequence.  Symbols must be
    non-negative (any value up to [max_int], not only a dense
    interning).  Build once per query and reuse across a whole matrix
    row ({!Features}).
    @raise Invalid_argument on a negative symbol. *)

val myers_pattern : pattern -> int array -> int
(** [myers_pattern (pattern a) b] is the Levenshtein distance of [a]
    and [b], at O(|a|·|b|/62) word operations plus one table lookup per
    symbol of [b].  Allocates only its two column vectors. *)

val myers : int array -> int array -> int
(** Myers bit-parallel edit distance of two non-negative symbol
    sequences: [myers_pattern (pattern a) b].  Equals
    {!levenshtein_ints} on every input (property-tested). *)

val myers_blocks : int -> int
(** Number of bit-vector blocks a pattern of the given length needs
    (exposed for tests). *)

val distance_at_most : bound:int -> int array -> int array -> int option
(** [Some d] iff the edit distance [d] of the two sequences is
    [<= bound], else [None]; visits only the diagonal band of
    half-width [bound] and abandons as soon as every band cell exceeds
    [bound].  The returned distance is exact, so eps-bounded callers
    (DBSCAN neighbor checks) can compare it against their threshold
    with the same float expression as the full path. *)

val char_distance : string -> string -> int
(** Plain character-level Levenshtein (for the negative demonstration).
    Operates directly on the strings — no per-call [char array]. *)

val token_distance : string -> string -> int
(** Edit distance between the fused token sequences of two query strings
    (insertions, deletions, substitutions of whole tokens).
    @raise Sqlir.Lexer.Lex_error on garbage. *)

val distance : string -> string -> float
(** Normalized token edit distance in [0,1]:
    [token_distance / max(len_a, len_b)]; [0] when both are empty. *)

val distance_q : Sqlir.Ast.query -> Sqlir.Ast.query -> float
