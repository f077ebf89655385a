#!/bin/sh
# Keep in lib/ only what a driver calls: fail when a lib/*/*.ml module's
# name appears in no .ml file under bin/, bench/, benchmark/, examples/
# or in another lib/ module.  A module that only tests call belongs in
# test/.  Run from the repository root (dune runtest does).
status=0
for f in lib/*/*.ml; do
  m=$(basename "$f" .ml | awk '{ print toupper(substr($0, 1, 1)) substr($0, 2) }')
  if ! grep -rlw --include='*.ml' "$m" bin bench benchmark examples lib | grep -qv "^$f\$"; then
    echo "$f: module $m is called from no driver or other lib/ module"
    status=1
  fi
done
exit $status
