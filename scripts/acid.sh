#!/usr/bin/env bash
# Acid check for the model checker: each of the thirteen mutations breaks
# one step of a shipped protocol body (eight in the ingress body, then
# five in the direct-stack body, the last on its private fast path), and
# `woolbench check --histories 0` must then fail in the scenario named
# beside it. A mutation whose pattern no longer matches the source fails
# the script, so a stale mutation cannot pass silently.
#
# Not part of `dune runtest`: it rebuilds the checker once per mutation
# (about two minutes in all). Run it from anywhere:
#
#   scripts/acid.sh            # work in a fresh temporary directory
#   scripts/acid.sh DIR        # work in DIR (kept afterwards)
#
# Exit status 0 means every mutation was caught.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
if [ $# -gt 0 ]; then
  work=$1
  mkdir -p "$work"
else
  work=$(mktemp -d)
  trap 'rm -rf "$work"' EXIT
fi
tree=$work/tree
rm -rf "$tree"
mkdir -p "$tree"
tar -C "$root" --exclude=./_build --exclude=./.git -cf - . | tar -C "$tree" -xf -

body=lib/deque/ingress_body.ml
ds=lib/deque/direct_stack_body.ml
failed=0

# mutate NAME FILE SCENARIO OLD NEW: replace the one occurrence of OLD
# in FILE by NEW, rebuild, and require SCENARIO to fail.
mutate() {
  local name=$1 file=$tree/$2 scenario=$3 old=$4 new=$5
  local orig
  orig=$(cat "$file"; printf x)
  orig=${orig%x}
  case $orig in
    *"$old"*"$old"*)
      echo "acid: $name: pattern matches more than once in $2" >&2
      exit 2 ;;
    *"$old"*) ;;
    *)
      echo "acid: $name: pattern no longer matches $2" >&2
      exit 2 ;;
  esac
  printf '%s' "${orig/"$old"/"$new"}" >"$file"
  local out status=0
  (cd "$tree" && dune build --display=quiet bin/woolbench.exe) || {
    echo "acid: $name: the mutant does not build" >&2
    printf '%s' "$orig" >"$file"
    exit 2
  }
  out=$(cd "$tree" && ./_build/default/bin/woolbench.exe check --histories 0 2>&1) \
    || status=$?
  printf '%s' "$orig" >"$file"
  if [ "$status" -ne 0 ] && grep -qF "!! $scenario:" <<<"$out"; then
    echo "caught  $name: $scenario fails"
    grep "^!!" <<<"$out" | paste -d " " - - | sed "s/^!! /          /; s/ !!  */ /"
  else
    echo "MISSED  $name: $scenario did not fail (exit $status)"
    failed=1
  fi
}

mutate "no stop re-check after the push" "$body" submit-vs-shutdown \
  $'      if A.get t.stop then drain t;\n' ''

mutate "Block reads stop between its failed push and its pause" "$body" block-vs-drain \
  $'          W.pause tries;\n          (not (A.get t.stop)) && push (tries + 1)' \
  $'          (not (A.get t.stop)) && (W.pause tries; push (tries + 1))'

mutate "park waits without re-checking after registering" "$body" submit-vs-park \
  '  let idle = A.get t.inflight = 0 && not (A.get t.stop) in' \
  '  let idle = true in'

mutate "a poll that saw a job in flight parks anyway" "$body" submit-vs-park \
  '    A.get t.inflight > 0 || A.get t.stop || (W.polling until && go ())' \
  $'    ignore (A.get t.inflight > 0 || A.get t.stop : bool);\n    W.polling until && go ()'

mutate "shed pops without settling" "$body" shed-vs-drain \
  $'          | Some oldest ->\n              drop t oldest;\n' \
  $'          | Some _ ->\n'

mutate "last-writer-wins claim" "$body" cancel-vs-complete \
  '  A.compare_and_set tk Pending Claimed' '  (A.set tk Claimed; true)'

mutate "no cancel check at dequeue" "$body" cancel-vs-complete \
  $'  let cancelled =\n    match j.token with\n    | Some c ->\n        t.fault w Cancel;\n        A.get c\n    | None -> false\n  in\n  if cancelled then settle_unrun t j.tk Cancelled\n  else if' \
  '  if'

mutate "no expiry check at dequeue" "$body" expire-vs-dequeue \
  $'  else if j.deadline <> max_int && (t.fault w Expire; t.now () > j.deadline)\n  then settle_unrun t j.tk Expired\n  else true' \
  '  else true'

mutate "no bot re-check after the steal CAS" "$ds" recycled-descriptor-backoff \
  '      if w1 land bot_mask <> b || aborted then begin' \
  '      if aborted then begin'

mutate "hold is a no-op" "$ds" leapfrog-hold \
  'let hold t ~index = t.own.top <- index + 1' \
  'let hold _ ~index:_ = ()'

mutate "sweep is a no-op" "$ds" single-task-lifecycle \
  '  let i = ref t.own.top in' '  let i = ref t.capacity in'

mutate "grow makes fresh records for the old indices" "$ds" steal-vs-grow \
  $'(fun i ->\n        if i < n then old.(i) else new_slot t.dummy)' \
  '(fun _ -> new_slot t.dummy)'

mutate "the fast join ignores pushed_public" "$ds" publish-window \
  '       slot.payload == v && not slot.pushed_public' \
  '       slot.payload == v'

exit $failed
