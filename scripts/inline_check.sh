#!/usr/bin/env bash
# Fast-path guard for the private spawn/join pair. The public spawn and
# join are the pair's fast paths: the direct-stack body is compiled into
# the pool's own unit (lib/runtime/dune) so that Ds.push_private and
# Ds.pop_private inline into them, and everything else (the gates, the
# public and stolen joins, the queued shape, tracing, faults) is a call
# to spawn_slow or join_slow. This script builds the pool's object file
# and reads its object code. It fails when spawn or join
#   - references the separately compiled Wool_deque.Direct_stack
#     (a load from that module block: an indirect call into another
#     unit, which is what the dev profile's -opaque makes of it),
#   - names push, pop, push_private, pop_private, depth, top_payload,
#     service_publish, spawn_direct or join_direct (a call, or a closure
#     load, of a function that did not inline, or of a slow-path half),
#   - references Wool_deque.Locked_deque or Wool_deque.Chase_lev, or
#     names q_push, q_pop or take_queued (the queued shape inlined into
#     the public pair),
#   - references caml_atomic_exchange (a public join's exchange),
#     caml_apply* (a call of unknown arity), Wool_trace.Ring or
#     Wool_util.Clock (tracing) or Wool.Cancel (the cancel token): a
#     cold gate back on the fast path, or
#   - has more than 80 instructions (the fast path alone is about 40;
#     the whole functions had 233 and 255 before the split).
#
# It also prints, for information only, each one's static instruction
# count in the object, a per-layer figure that no timing noise moves,
# and where spawn and join sit: their offset mod 64 in the pool's
# object and in the linked benchmark (benchmark/wool_bench.exe), and
# the runtime's caml_modify's in the benchmark (every spawn calls it;
# a resize of any OCaml code linked ahead of the runtime moves it). Moving the pair across a
# 64-byte boundary has moved fib's time before (EXPERIMENTS.md), so a
# change that moves any of them is worth a `wool_bench.exe ab`. The
# offset lines never change the exit status.
#
# Not part of `dune runtest`. Needs objdump and nm (binutils). Run it from
# anywhere:
#
#   scripts/inline_check.sh          # check this checkout
#   scripts/inline_check.sh ROOT     # check the checkout at ROOT
#
# Exit status: 0 ok, 1 a check failed, 2 the object or a function could
# not be found.
set -euo pipefail

root=${1:-$(cd "$(dirname "$0")/.." && pwd)}
obj=$root/_build/default/lib/runtime/.wool.objs/native/wool__Pool.o
(cd "$root" && dune build --display=quiet ./lib/runtime/wool.cmxa)
if [ ! -f "$obj" ]; then
  echo "inline_check: no object at $obj" >&2
  exit 2
fi

disasm=$(objdump -dr "$obj")
status=0
for fn in spawn join; do
  body=$(awk -v fn="$fn" '
    $0 ~ "<camlWool__Pool[.]" fn "_[0-9]+>:$" { on = 1; print; next }
    on && /^$/ { exit }
    on { print }' <<<"$disasm")
  if [ -z "$body" ]; then
    echo "inline_check: $fn not found in $obj" >&2
    exit 2
  fi
  cross=$(grep -c 'camlWool_deque__Direct_stack' <<<"$body" || true)
  calls=$(grep -Eo 'camlWool__Pool[.](push|pop|push_private|pop_private|depth|top_payload|service_publish|spawn_direct|join_direct)_[0-9]+' \
    <<<"$body" | sort -u | tr '\n' ' ' || true)
  queued=$(grep -Eo 'camlWool_deque__(Locked_deque|Chase_lev)|camlWool__Pool[.](q_push|q_pop|take_queued)_[0-9]+' \
    <<<"$body" | sort -u | tr '\n' ' ' || true)
  cold=$(grep -Eo 'caml_atomic_exchange|caml_apply[0-9]*|camlWool_trace__Ring|camlWool_util__Clock|camlWool__Cancel' \
    <<<"$body" | sort -u | tr '\n' ' ' || true)
  # one line per instruction: address, bytes and mnemonic (a long
  # instruction's continuation line has no mnemonic)
  count=$(awk -F'\t' '$1 ~ /^ *[0-9a-f]+:$/ && NF >= 3' <<<"$body" | wc -l)
  if [ "$cross" -gt 0 ] || [ -n "$calls" ] || [ -n "$queued" ] ||
    [ -n "$cold" ] || [ "$count" -gt 80 ]; then
    echo "FAIL  $fn: $cross reference(s) to Wool_deque.Direct_stack;" \
      "not inlined: ${calls:-none}; queued path inlined: ${queued:-no};" \
      "cold references: ${cold:-none}; $count instructions (at most 80)"
    status=1
  else
    echo "ok    $fn: the private path inlined, no Direct_stack, queued," \
      "exchange, apply, trace or cancel reference"
  fi
  echo "info  $fn: $count instructions"
done

# offset FILE WHERE NAME PATTERN: the first symbol of FILE matching
# PATTERN, printed as NAME's offset and its offset mod 64
offset() {
  local addr
  addr=$(nm "$1" | awk -v re="$4" '!found && $3 ~ re { print $1; found = 1 }')
  if [ -n "$addr" ]; then
    echo "info  $3: $2 offset 0x${addr#"${addr%%[!0]*}"}," \
      "mod 64 = $((16#$addr % 64))"
  else
    echo "info  $3: not found in $2"
  fi
}

placement() {
  for fn in spawn join; do
    offset "$1" "$2" "$fn" "^camlWool__Pool[.]${fn}_[0-9]+\$"
  done
}
placement "$obj" object
exe=$root/_build/default/benchmark/wool_bench.exe
if (cd "$root" && dune build --display=quiet ./benchmark/wool_bench.exe) &&
  [ -f "$exe" ]; then
  placement "$exe" benchmark
  offset "$exe" benchmark caml_modify '^caml_modify$'
else
  echo "info  no benchmark executable at $exe"
fi
exit $status
