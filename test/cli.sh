#!/usr/bin/env bash
# CLI checks against the built binary, run by `dune runtest` from the build
# copy of this directory: usage: cli.sh LOOPAPALOOZA_EXE
#   - `sweep` prints golden/sweep_<program>.txt byte for byte, cold and then
#     warm through `--cache` (the warm run replays the stored table);
#   - `analyze --profile` writes golden/profile_<program>.folded and
#     .samples.folded and prints the golden/profile_<program>.opcodes block
#     byte for byte: every call and loop event clock, every sample's
#     placement and the opcode partition of the interpreter clock;
#   - an unusable `--cache DIR`, and a checkpoint on a full disk
#     (/dev/full, where it exists), are system errors (exit 2), not
#     internal ones.
set -euo pipefail
exe=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
tmp=cli-tmp
rm -rf "$tmp"
mkdir -p "$tmp"
for p in rspeed01 164_gzip 429_mcf; do
  for pass in cold warm; do
    "$exe" sweep "$p" --cache "$tmp/cache" > "$tmp/$p.$pass"
    if ! cmp -s "golden/sweep_$p.txt" "$tmp/$p.$pass"; then
      echo "cli: sweep $p ($pass) differs from golden/sweep_$p.txt" >&2
      diff "golden/sweep_$p.txt" "$tmp/$p.$pass" >&2 || true
      exit 1
    fi
  done
done
# the cold passes stored one entry per program for the warm ones to replay
n=$(find "$tmp/cache" -name '*.json' | wc -l)
if [ "$n" -ne 3 ]; then
  echo "cli: expected 3 sweep cache entries, found $n" >&2
  exit 1
fi
for p in 179_art 164_gzip 255_vortex; do
  "$exe" analyze "$p" --profile "$tmp/$p" > "$tmp/$p.out"
  # the opcode mix block: its heading down to the first "wrote" line
  awk '/^opcode mix/ { on = 1 } /^wrote / { on = 0 } on' "$tmp/$p.out" \
    > "$tmp/$p.opcodes"
  for ext in folded samples.folded opcodes; do
    if ! cmp -s "golden/profile_$p.$ext" "$tmp/$p.$ext"; then
      echo "cli: analyze $p --profile: $p.$ext differs from golden/profile_$p.$ext" >&2
      diff "golden/profile_$p.$ext" "$tmp/$p.$ext" >&2 || true
      exit 1
    fi
  done
done
# a cache directory under a regular file cannot be created
touch "$tmp/file"
status=0
"$exe" analyze rspeed01 --cache "$tmp/file/sub" > /dev/null 2> "$tmp/err" || status=$?
if [ "$status" -ne 2 ] \
  || ! grep -qx "system error: $tmp/file/sub: Not a directory" "$tmp/err"; then
  echo "cli: analyze --cache under a file: exit $status, want 2 and a system error" >&2
  cat "$tmp/err" >&2
  exit 1
fi
# every write to /dev/full fails with ENOSPC
if [ -e /dev/full ]; then
  status=0
  "$exe" campaign rspeed01 --checkpoint /dev/full > /dev/null 2> "$tmp/err" \
    || status=$?
  if [ "$status" -ne 2 ] \
    || ! grep -qx "system error: No space left on device" "$tmp/err"; then
    echo "cli: campaign --checkpoint /dev/full: exit $status, want 2 and a system error" >&2
    cat "$tmp/err" >&2
    exit 1
  fi
fi
rm -rf "$tmp"
