(* Helpers shared across the runtime test suites; previously duplicated
   per file. *)

(* Short-hand pool constructors: [Wool.create]/[Wool.with_pool] take
   only a config now, and spelling out [Wool.Config.make] at every one
   of the suites' ~200 pool creations drowns the test in plumbing. *)
let create ?workers ?mode ?publicity ?seed ?trace ?trace_capacity ?policy
    ?faults ?watchdog_interval_ns ?watchdog_stalls ?injection_capacity
    ?admission ?admission_target_ns ?server () =
  Wool.create
    ~config:
      (Wool.Config.make ?workers ?mode ?publicity ?seed ?trace
         ?trace_capacity ?policy ?faults ?watchdog_interval_ns
         ?watchdog_stalls ?injection_capacity ?admission ?admission_target_ns
         ?server ())
    ()

let with_pool ?workers ?mode ?publicity ?seed ?trace ?trace_capacity ?policy
    ?faults ?watchdog_interval_ns ?watchdog_stalls ?injection_capacity
    ?admission ?admission_target_ns ?server f =
  Wool.with_pool
    ~config:
      (Wool.Config.make ?workers ?mode ?publicity ?seed ?trace
         ?trace_capacity ?policy ?faults ?watchdog_interval_ns
         ?watchdog_stalls ?injection_capacity ?admission ?admission_target_ns
         ?server ())
    f

(* Every pool mode, with a label for per-case messages — derived from the
   canonical {!Wool.Mode.all} so new modes are swept the day they exist. *)
let all_modes = List.map (fun m -> (Wool.Mode.name m, m)) Wool.Mode.all

(* The canonical fork-join workload and its sequential oracle. *)
let rec fib ctx n =
  if n < 2 then n
  else begin
    let b = Wool.spawn ctx (fun ctx -> fib ctx (n - 2)) in
    let a = fib ctx (n - 1) in
    a + Wool.join ctx b
  end

let rec fib_serial n =
  if n < 2 then n else fib_serial (n - 1) + fib_serial (n - 2)

(* Spin-wait that also yields the timeslice: on a machine with fewer
   cores than domains the peer needs the CPU to make progress. *)
let await_flag flag =
  while Atomic.get flag < 0 do
    Domain.cpu_relax ();
    Unix.sleepf 0.0002
  done

(* Spin until [cond] holds or [timeout_ns] elapses (monotonic deadline:
   a wall-clock step must not cut it short); returns whether it held. *)
let spin_until ?(timeout_ns = 5_000_000_000) cond =
  let deadline = Wool_util.Clock.now_ns () + timeout_ns in
  let rec go () =
    if cond () then true
    else if Wool_util.Clock.now_ns () >= deadline then cond ()
    else begin
      Domain.cpu_relax ();
      go ()
    end
  in
  go ()

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  go 0
