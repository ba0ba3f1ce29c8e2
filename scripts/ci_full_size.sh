#!/usr/bin/env bash
# Full-size checks of the command-line program: Table 2 to order 29
# against its machine output in tests/cli_golden.json, and the pair-join,
# its two refusals, import, import --expand, classify and verify on the
# order-11 database perfbench/data/costas_order11.txt.  Each check pins
# an exit code, and its output's bytes by cmp or by sha256.
#
# The arguments are the command that runs the program.  Run it from the
# root of the repository, installed or from the source tree:
#
#   scripts/ci_full_size.sh costas-cubes
#   PYTHONPATH=src scripts/ci_full_size.sh python -m costas_cubes.cli
set -euo pipefail

if [ "$#" -eq 0 ]; then
    echo "usage: $0 COMMAND [ARGS...]  (for example: costas-cubes)" >&2
    exit 2
fi
db=perfbench/data/costas_order11.txt
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

pin() {  # pin SHA256 FILE
    echo "$1  $2" | shasum -a 256 -c -
}

echo "== Table 2 to order 29, compared with its machine output in tests/cli_golden.json"
python -c 'import json, sys; sys.stdout.write(json.load(open("tests/cli_golden.json"))["tables-2 --format machine"]["stdout"])' > "$tmp/table2_o29_expected.txt"
"$@" tables --table 2 --max-order 29 --format machine > "$tmp/table2_o29.txt"
cmp "$tmp/table2_o29_expected.txt" "$tmp/table2_o29.txt"

echo "== Pair-join at order 11: the database as given and with CRLF endings and a comment line; the representatives' sha256"
printf '%s\n' '{"cube_classes": 66, "order": 11, "projection_array_classes": 126, "total_array_classes": 555}' > "$tmp/join_o11_expected.txt"
"$@" enumerate --order 11 --arrays-file "$db" --format machine > "$tmp/join_o11.txt"
cmp "$tmp/join_o11_expected.txt" "$tmp/join_o11.txt"
sed $'10a\\\n# a comment between array lines' "$db" | sed $'s/$/\r/' > "$tmp/costas_order11_crlf.txt"
"$@" enumerate --order 11 --arrays-file "$tmp/costas_order11_crlf.txt" --format machine > "$tmp/join_o11_crlf.txt"
cmp "$tmp/join_o11_expected.txt" "$tmp/join_o11_crlf.txt"
"$@" enumerate --order 11 --arrays-file "$db" --format machine --emit-representatives > "$tmp/join_o11_reps.txt"
pin b6e485f964572f8a57869ebe9ed6eab2bd4b558bbcf25c3f2d2ca8db561c452a "$tmp/join_o11_reps.txt"

echo "== Pair-join refusals at order 11: the last line repeated exits 2 naming the duplicates; without it, exits 2 naming the missing image"
sed '$p' "$db" > "$tmp/o11_repeated.txt"
code=0; "$@" enumerate --order 11 --arrays-file "$tmp/o11_repeated.txt" > "$tmp/o11_repeated.out" 2> "$tmp/o11_repeated.err" || code=$?
test "$code" -eq 2
test ! -s "$tmp/o11_repeated.out"
printf '%s\n' 'error: array list contains duplicates' | cmp - "$tmp/o11_repeated.err"
sed '$d' "$db" > "$tmp/o11_short.txt"
code=0; "$@" enumerate --order 11 --arrays-file "$tmp/o11_short.txt" > "$tmp/o11_short.out" 2> "$tmp/o11_short.err" || code=$?
test "$code" -eq 2
test ! -s "$tmp/o11_short.out"
printf '%s\n' 'error: array list is not closed under the square symmetries (image of (1,2,5,9,4,11,10,7,3,8,6) missing); it cannot be complete' | cmp - "$tmp/o11_short.err"

echo "== Import at order 11: the summary line and the normalized copy's sha256"
"$@" import "$db" --expect-order 11 --output "$tmp/o11.normalized" > "$tmp/import_o11.txt"
head -n 1 "$tmp/import_o11.txt" | grep -q '^order 11: 4368 arrays, 555 classes' || { cat "$tmp/import_o11.txt"; exit 1; }
pin d10e37d588a548201902c87a8f466dd03e7b71e526245469bfa0e15aa0871de5 "$tmp/o11.normalized"

echo "== Import --expand: the 555 order-11 class representatives expand to the full import's normalized copy"
python -B -c 'import sys; sys.path.insert(0, "perfbench"); from oracle import array_class_key; rows = [tuple(map(int, line.split())) for line in open("perfbench/data/costas_order11.txt") if line.strip() and not line.startswith("#")]; open(sys.argv[1], "w").write("".join(" ".join(map(str, r)) + "\n" for r in rows if array_class_key(r) == r))' "$tmp/reps_o11.txt"
test "$(wc -l < "$tmp/reps_o11.txt")" -eq 555
"$@" import "$tmp/reps_o11.txt" --expand --expect-order 11 --output "$tmp/o11_expanded.normalized" > "$tmp/import_reps_o11.txt"
head -n 1 "$tmp/import_reps_o11.txt" | grep -qxF 'note: expanded to full square-symmetry orbits (4368 arrays)' || { cat "$tmp/import_reps_o11.txt"; exit 1; }
pin d10e37d588a548201902c87a8f466dd03e7b71e526245469bfa0e15aa0871de5 "$tmp/o11_expanded.normalized"

echo "== Classify and verify at order 11: each output's sha256"
"$@" classify array "$db" --format machine > "$tmp/classify_o11.txt"
pin 7e53562b6a221a3e8ebc564525b6b059b94b8622999f355a8fd7f2e8ebe66cb8 "$tmp/classify_o11.txt"
"$@" verify array "$db" --format machine > "$tmp/verify_o11.txt"
pin 922cc5c4802713b42600132715fc37bb961ef0ab87ead9427cf496320b521c88 "$tmp/verify_o11.txt"

echo "== Verify and classify of a mixed-order file: lines of orders 6, 1 and 5 put in, read line by line; verify exits 1"
python -c 'import sys; lines = open("perfbench/data/costas_order11.txt").read().splitlines(keepends=True); lines[40:40] = ["1 2 4 3 6 5\n", "# a comment\n", "1\n"]; lines[3000:3000] = ["\t2 4 5 1 3\n"]; open(sys.argv[1], "w").write("".join(lines))' "$tmp/o11_mixed.txt"
code=0; "$@" verify array "$tmp/o11_mixed.txt" --format machine > "$tmp/verify_mixed.txt" || code=$?
test "$code" -eq 1
pin f3d6207ce3818ad9c766994295f6a70b75f62dba242ba095be915a62ef88e602 "$tmp/verify_mixed.txt"
"$@" classify array "$tmp/o11_mixed.txt" --format machine > "$tmp/classify_mixed.txt"
pin a900dc33092c21520051281530d5035d88f97ed15afd38815396eecb17d3af91 "$tmp/classify_mixed.txt"

echo "== all full-size checks passed"
