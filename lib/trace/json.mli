(** The library's one JSON codec, dependency-free (no ppx, no yojson).

    Every report the library writes — the Chrome trace export, the stall
    report, [Wool.Stats.to_json], the [bench], [serve] and policy-grid
    snapshots — is built as a {!tree} and printed by {!to_string}, so
    well-formed output needs no second check. {!parse} reads the same
    trees back where a document's values are needed (the harnesses'
    [--compare] and [--check], and the tests). *)

(** A JSON document. Integer literals that fit an OCaml [int] are
    [Int] (so a nanosecond timestamp above 2^53 keeps every digit);
    every other number is [Num]. Object members keep their order. *)
type tree =
  | Null
  | Bool of bool
  | Int of int
  | Num of float
  | Str of string
  | Arr of tree list
  | Obj of (string * tree) list

val escape : string -> string
(** Escape a string for inclusion inside JSON double quotes: the quote
    and the backslash get a backslash, newline, return and tab their
    one-letter escapes, the other bytes below 0x20 a [u00XX] escape.
    Other bytes (UTF-8 included) pass through. *)

val to_buffer : Buffer.t -> tree -> unit
(** Append compact JSON (no whitespace). Keys and strings are escaped as
    by {!escape}; an [Int] prints as [%d] does; a finite [Num] prints
    the shortest of [%.15g]/[%.16g]/[%.17g] that reads back as the same
    float, with a fraction or exponent (so [Num 3.] prints [3.0]); a
    non-finite [Num] prints [null]. *)

val to_string : tree -> string
(** {!to_buffer} into a fresh string. [parse (to_string t) = Ok t] for
    every [t] whose numbers are finite. *)

val parse : string -> (tree, string) result
(** Parse one JSON value (RFC 8259 grammar, surrounding whitespace
    allowed, without [\u] surrogate-pair pedantry); [Error msg] names
    the first offending offset. *)

(** {2 Typed readers}

    Total: [None] on a non-object, a missing key or a value of another
    type. *)

val member : string -> tree -> tree option
val to_float : tree -> float option
(** [Int] or [Num], as a float. *)

val float_member : string -> tree -> float option
(** Like {!to_float} on the member, and [null] reads as [infinity] (the
    printer writes non-finite numbers as [null]). *)

val int_member : string -> tree -> int option
val bool_member : string -> tree -> bool option
val string_member : string -> tree -> string option
val list_member : string -> tree -> tree list option
