#!/bin/sh
# Writes the store directory test/data/interval16_store with the clsm_cli
# of a checkout whose Table_builder cut data blocks at restart interval
# 16 (every commit up to 74d252b). The store was written so, and is
# checked in as written; test_sstable's "an interval-16 store still
# reads" computes the same contents and reads them back.
#
#   old=$(mktemp -d)
#   git archive 74d252b | tar -x -C "$old" && (cd "$old" && dune build bin/clsm_cli.exe)
#   rm -rf test/data/interval16_store
#   sh test/data/write_interval16_store.sh "$old/_build/default/bin/clsm_cli.exe" \
#     test/data/interval16_store
#
# Contents: key-00000 .. key-01199 put as value-<i>-<the first i mod 27
# letters of the alphabet>, flushed and compacted; then every key with
# i mod 3 = 1 overwritten as second-<i>, compacted; then every key with
# i mod 7 = 0 deleted, compacted; then key-01200 .. key-01249 put as
# wal-<i> and left in the write-ahead log.
set -eu
cli=$1
dir=$2
awk 'BEGIN { a = "abcdefghijklmnopqrstuvwxyz"
  for (i = 0; i < 1200; i++) printf "put key-%05d value-%d-%s\n", i, i, substr(a, 1, i % 27) }' |
  "$cli" batch -d "$dir"
"$cli" compact -d "$dir"
awk 'BEGIN { for (i = 1; i < 1200; i += 3) printf "put key-%05d second-%d\n", i, i }' |
  "$cli" batch -d "$dir"
"$cli" compact -d "$dir"
awk 'BEGIN { for (i = 0; i < 1200; i += 7) printf "del key-%05d\n", i }' |
  "$cli" batch -d "$dir"
"$cli" compact -d "$dir"
awk 'BEGIN { for (i = 1200; i < 1250; i++) printf "put key-%05d wal-%d\n", i, i }' |
  "$cli" batch -d "$dir"
