(* Clock, sample statistics and the metric record every runner returns. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Linear interpolation between closest ranks. [q] in [0, 1]; +inf
   samples (failed requests) sort last, so a percentile that reaches
   them reads +inf. *)
let quantile (xs : float array) q =
  let n = Array.length xs in
  if n = 0 then invalid_arg "quantile: no samples";
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let pos = q *. float_of_int (n - 1) in
  let i = int_of_float pos in
  if i >= n - 1 then a.(n - 1)
  else
    let f = pos -. float_of_int i in
    if f = 0. || a.(i + 1) = a.(i) then a.(i) else a.(i) +. (f *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5
let fastest xs = quantile xs 0.

(* Mean of the central 80% of the samples: as robust as a median to a GC
   pause inside a span, but not stuck on whole nanoseconds the way the
   median of clock-granular durations is. *)
let trimmed_mean (xs : float array) =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  let lo = n / 10 in
  let hi = max (lo + 1) (n - lo) in
  let s = ref 0. in
  for i = lo to hi - 1 do
    s := !s +. a.(i)
  done;
  !s /. float_of_int (hi - lo)

(* Python's [statistics.quantiles(data, n=4)] (the "exclusive" method),
   so a spread computed here matches one computed from the same values
   with Python. Needs at least two values. *)
let quartiles (xs : float array) =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let ld = Array.length a in
  if ld < 2 then invalid_arg "quartiles: need two values";
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.
  in
  (q 1, q 2, q 3)

(* A growable float sample. *)
type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 64 0.; len = 0 }

let add s x =
  if s.len = Array.length s.data then begin
    let d = Array.make (2 * s.len) 0. in
    Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let values s = Array.sub s.data 0 s.len

(* [End_to_end] metrics make the result line of an untraced run and
   [Per_layer] ones that of a traced run; [Extra] metrics are printed and
   written to --out only. *)
type kind = End_to_end | Per_layer | Extra

type metric = {
  name : string;
  value : float;
  unit_ : string;
  n : int;  (** samples behind the value; 1 for a count *)
  kind : kind;
}

let metric kind ?(n = 1) name unit_ value = { name; value; unit_; n; kind }
let e2e = metric End_to_end
let layer = metric Per_layer
let extra = metric Extra

let kind_name = function
  | End_to_end -> "end_to_end"
  | Per_layer -> "per_layer"
  | Extra -> "extra"

(* A time budget: [until b f] is the instant a fraction [f] of the run's
   seconds after its start. Phases loop until their instant passes, but
   always take [min_reps] samples so a tiny budget still measures. *)
type budget = { start : int; span_ns : int }

let budget seconds = { start = now_ns (); span_ns = int_of_float (seconds *. 1e9) }
let until b f = b.start + int_of_float (f *. float_of_int b.span_ns)
let min_reps = 3

let repeat_until deadline f =
  let i = ref 0 in
  while !i < min_reps || now_ns () < deadline do
    f !i;
    incr i
  done

let ms ns = float_of_int ns *. 1e-6

(* Outcome accounting for the result line. Every checked operation is
   attempted; [fail] counts a failed one (a rejected or expired request),
   and [wrong] also marks the run incorrect (a digest mismatch, an
   exception, an invariant violation), which makes the run exit
   non-zero. *)
let attempted = ref 0
let failed = ref 0
let problems = ref []

let fail () = incr failed

let wrong msg =
  incr failed;
  problems := msg :: !problems

let check what ok =
  incr attempted;
  if not ok then wrong (what ^ ": wrong result")

(* Quiescent protocol check of a pool the benchmark is done with. *)
let invariants what pool =
  List.iter (fun v -> problems := (what ^ ": " ^ v) :: !problems) (Wool.Invariants.check pool)

(* One scheduler counter, read by name from [Wool.Stats.to_json]. *)
let counter (s : Wool.Stats.t) name =
  match Json.member name (Json.parse (Wool.Stats.to_json s)) with
  | Some (Json.Num f) -> f
  | _ -> failwith ("Wool.Stats.to_json has no counter " ^ name)
