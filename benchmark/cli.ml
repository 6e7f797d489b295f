let usage =
  "wool_bench.exe --workload (fib|regions|histogram|serve) [--seed N] [--seconds S] \
   [--trace 0|1] [--trace-file FILE] [--out FILE] [--tiny]\n\
   wool_bench.exe ab PARENT_EXE CHANGE_EXE [--pairs N] [--bench FILE] [--out PREFIX]\n\
   wool_bench.exe smoke [--bench FILE]"

(* A command-line error: the message and usage on stderr, exit 2. *)
let die msg =
  prerr_endline ("wool_bench: " ^ msg);
  prerr_endline usage;
  exit 2
