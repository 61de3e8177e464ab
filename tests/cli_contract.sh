#!/usr/bin/env bash
# The CLI contract through the real entry point: the goldens byte for byte,
# the golden covers verified, usage errors (exit 2) and precondition errors
# (exit 3), each with its message where the message is part of the contract.
# Run it from anywhere with the Python under test first on PATH:
#   bash tests/cli_contract.sh
set -eo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
python -m tropcover.cli theta tests/data/k4.json > "$out/theta.jsonl"
cmp "$out/theta.jsonl" tests/golden/k4_theta.jsonl
python -m tropcover.cli cover free tests/data/k4.json > "$out/cover_free.jsonl"
cmp "$out/cover_free.jsonl" tests/golden/k4_cover_free.jsonl
python -m tropcover.cli cover free tests/data/k4.json --bits 111 > "$out/cube.json"
cmp "$out/cube.json" tests/golden/k4_cube.json
python -m tropcover.cli cover dilated tests/data/k4.json --cycle BC,BD,CD > "$out/dilated_triangle.json"
cmp "$out/dilated_triangle.json" tests/golden/k4_cover_dilated_triangle.json
python -m tropcover.cli pair tests/data/k4.json > "$out/pair.json"
cmp "$out/pair.json" tests/golden/k4_pair.json
# the golden covers parse through a frame of their own maps and verify
test "$(python -m tropcover.cli cover verify tests/golden/k4_cube.json)" = '{"dilation":[],"ok":true,"problems":[]}'
test "$(python -m tropcover.cli cover verify tests/golden/k4_cover_dilated_triangle.json)" = '{"dilation":["BC","BD","CD"],"ok":true,"problems":[]}'
status=0
python -m tropcover.cli divisor reduce tests/data/k4.json tests/data/zero.json || status=$?
test "$status" -eq 2
# a reduction at a point inside an edge, on lengths 1/2, 1/3 and 1 with a chip inside an edge
echo '{"vertices":[{"id":"a"},{"id":"b"}],"edges":[{"id":"e","tail":"a","head":"b","length":"1/2"},{"id":"f","tail":"a","head":"b","length":"1/3"},{"id":"g","tail":"a","head":"b","length":"1"}]}' > "$out/three_lengths.json"
echo '[{"at":{"vertex":"a"},"coeff":3},{"at":{"vertex":"b"},"coeff":-1},{"at":{"edge":"g","offset":"1/4"},"coeff":1}]' > "$out/three_lengths_div.json"
test "$(python -m tropcover.cli divisor reduce "$out/three_lengths.json" "$out/three_lengths_div.json" --at f@1/6)" = '[{"at":{"vertex":"b"},"coeff":1},{"at":{"edge":"f","offset":"1/6"},"coeff":1},{"at":{"edge":"g","offset":"3/4"},"coeff":1}]'
# a digit separator is not part of a rational: a length of "1_0" exits 2
sed 's/"length":"1"/"length":"1_0"/' "$out/three_lengths.json" > "$out/separator.json"
status=0
python -m tropcover.cli validate "$out/separator.json" || status=$?
test "$status" -eq 2
# a --cycle edge the graph does not have is malformed input, exit 2
status=0
python -m tropcover.cli cover dilated tests/data/k4.json --cycle BC,BD,XX || status=$?
test "$status" -eq 2
test "$(python -m tropcover.cli divisor principal tests/data/k4.json tests/data/zero.json)" = true
# two vertices with a loop at each: a precondition error, exit 3
echo '{"vertices":[{"id":"a"},{"id":"b"}],"edges":[{"id":"e","tail":"a","head":"a","length":"1"},{"id":"f","tail":"b","head":"b","length":"1"}]}' > "$out/two_loops.json"
status=0
python -m tropcover.cli theta "$out/two_loops.json" || status=$?
test "$status" -eq 3
# validate reads the graph's components: K4 is connected, the two loops are not (exit 2)
test "$(python -m tropcover.cli validate tests/data/k4.json)" = '{"connected":true,"edges":6,"genus":3,"ok":true,"vertices":4}'
status=0
python -m tropcover.cli validate "$out/two_loops.json" 2> "$out/validate.err" || status=$?
test "$status" -eq 2
test "$(cat "$out/validate.err")" = "error: disconnected"
# one spanning forest: jac prints the tree, --bits names the other edges
test "$(python -m tropcover.cli jac tests/data/k4.json tests/data/zero.json)" = '{"basis":"fundamental","coords":["0","0","0"],"tree":["AB","AC","AD"]}'
status=0
python -m tropcover.cli cover free tests/data/k4.json --bits 1 2> "$out/bits.err" || status=$?
test "$status" -eq 2
test "$(cat "$out/bits.err")" = "error: --bits needs 3 binary digits (non-tree edges BC,BD,CD)"
# a JSON true is not an integer: a length, a genus, a coefficient or a degree of true exits 2
sed 's/"length":"1"/"length":true/' tests/data/k4.json > "$out/bool_length.json"
sed 's/"genus":0/"genus":true/' tests/data/k4.json > "$out/bool_genus.json"
echo '[{"at":{"vertex":"A"},"coeff":true},{"at":{"vertex":"B"},"coeff":-1}]' > "$out/bool_coeff.json"
sed 's/"degree":1/"degree":true/' tests/golden/k4_cube.json > "$out/bool_degree.json"
for argv in "validate $out/bool_length.json" "validate $out/bool_genus.json" \
    "divisor principal tests/data/k4.json $out/bool_coeff.json" "cover verify $out/bool_degree.json"; do
  status=0
  python -m tropcover.cli $argv || status=$?
  test "$status" -eq 2
done
# malformed shapes are named, not tracebacks: an empty graph, an 'at' that is not an object, a vertex_map that is not one
echo '{"vertices":[],"edges":[]}' > "$out/empty.json"
echo '[{"at":5,"coeff":1}]' > "$out/at_5.json"
sed 's/"vertex_map":{[^}]*}/"vertex_map":[]/' tests/golden/k4_cube.json > "$out/vertex_map_list.json"
for argv in "validate $out/empty.json" "theta $out/empty.json" \
    "divisor principal tests/data/k4.json $out/at_5.json" "cover verify $out/vertex_map_list.json"; do
  status=0
  python -m tropcover.cli $argv || status=$?
  test "$status" -eq 2
done
# ids are JSON strings, and a fault in a cover's graph names that graph: each exits 2 naming the field
echo '{"vertices":[{"id":["a"]}],"edges":[]}' > "$out/list_id.json"
echo '[{"at":{"vertex":1},"coeff":1}]' > "$out/int_vertex.json"
python -c 'import json, sys; c = json.load(open(sys.argv[1])); c["target"] = {"vertices": [], "edges": []}; print(json.dumps(c))' \
    tests/golden/k4_cube.json > "$out/empty_target.json"
for case in "validate $out/list_id.json|error: vertices[0]: 'id' must be a string" \
    "divisor principal tests/data/k4.json $out/int_vertex.json|error: divisor[0]: 'vertex' must be a string" \
    "cover verify $out/empty_target.json|error: cover: target: graph: 'vertices' is empty"; do
  status=0
  python -m tropcover.cli ${case%%|*} 2> "$out/field.err" || status=$?
  test "$status" -eq 2
  test "$(cat "$out/field.err")" = "${case#*|}"
done
# a cover's edge map names each source edge once, and a divisor's 'at' names a vertex or an edge, not both: each exits 2 naming the record
python -c 'import json, sys; c = json.load(open(sys.argv[1])); c["edge_map"].insert(0, {"src": "AB^0", "tgt": "CD", "degree": 1}); print(json.dumps(c))' \
    tests/golden/k4_cube.json > "$out/duplicate_src.json"
echo '[{"at":{"vertex":"A","edge":"AB","offset":"1/2"},"coeff":1},{"at":{"vertex":"B"},"coeff":-1}]' > "$out/vertex_and_edge.json"
for case in "cover verify $out/duplicate_src.json|error: edge_map[1]: duplicate src 'AB^0'" \
    "jac tests/data/k4.json $out/vertex_and_edge.json|error: divisor[0]: 'at' names both a vertex and an edge"; do
  status=0
  python -m tropcover.cli ${case%%|*} 2> "$out/record.err" || status=$?
  test "$status" -eq 2
  test "$(cat "$out/record.err")" = "${case#*|}"
done
# the file boundary: an --out that cannot be opened names the flag, a graph file that is not UTF-8 names the path; each exits 2
status=0
python -m tropcover.cli validate tests/data/k4.json --out "$out/missing/o.json" 2> "$out/out.err" || status=$?
test "$status" -eq 2
grep -q "^error: --out: " "$out/out.err"
printf '{"vertices":[{"id":"\304"}],"edges":[]}' > "$out/latin1.json"
status=0
python -m tropcover.cli validate "$out/latin1.json" 2> "$out/utf8.err" || status=$?
test "$status" -eq 2
grep -qF "error: $out/latin1.json: " "$out/utf8.err"
# a cover whose edge map names a deleted source edge: cover verify reports it (exit 0), a verb that uses the cover refuses it (exit 2)
python -c 'import json, sys; c = json.load(open(sys.argv[1])); c["source"]["edges"] = [e for e in c["source"]["edges"] if e["id"] != "AB^0"]; print(json.dumps(c))' \
    tests/golden/k4_cube.json > "$out/no_ab0.json"
python -m tropcover.cli cover verify "$out/no_ab0.json" > "$out/no_ab0.out"
grep -qF '"ok":false' "$out/no_ab0.out"
grep -qF "'AB^0'" "$out/no_ab0.out"
status=0
python -m tropcover.cli prym components "$out/no_ab0.json" || status=$?
test "$status" -eq 2
# DOT labels quote what they hold: a double quote in an edge id is escaped
echo '{"vertices":[{"id":"A"},{"id":"B"}],"edges":[{"id":"e\"]; x [","tail":"A","head":"B","length":"1"}]}' > "$out/quote.json"
python -m tropcover.cli export dot "$out/quote.json" > "$out/quote.dot"
grep -qF '[label="e\"]; x [", len="1"];' "$out/quote.dot"
# a rational with an exponent is malformed input, exit 2 from each verb that reads the graph
echo '{"vertices":[{"id":"a"},{"id":"b"}],"edges":[{"id":"e","tail":"a","head":"b","length":"1e5000"},{"id":"f","tail":"a","head":"b","length":"1"}]}' > "$out/exponent.json"
for verb in validate theta "cover free"; do
  status=0
  python -m tropcover.cli $verb "$out/exponent.json" || status=$?
  test "$status" -eq 2
done
# short lengths whose theta offsets pass the 4,300-digit limit for integer strings: exit 2 naming the limit
python -c 'import json; e = [("e", "1/%d" % 2**8000), ("f", "1/%d" % 3**5000), ("g", "1")]; print(json.dumps({"vertices": [{"id": "a"}, {"id": "b"}], "edges": [{"id": i, "tail": "a", "head": "b", "length": l} for i, l in e]}))' > "$out/big_denominators.json"
status=0
python -m tropcover.cli theta "$out/big_denominators.json" 2> "$out/digits.err" || status=$?
test "$status" -eq 2
grep -qF "4300-digit limit" "$out/digits.err"
# theta --pretty on a vertex whose id is the empty string
echo '{"vertices":[{"id":""},{"id":"b"}],"edges":[{"id":"e","tail":"","head":"b","length":"1"},{"id":"f","tail":"","head":"b","length":"1"},{"id":"g","tail":"","head":"b","length":"1"}]}' > "$out/empty_id.json"
python -m tropcover.cli theta --pretty "$out/empty_id.json" > "$out/empty_id.txt"
# the pairing of a one-vertex graph: one cover, one class, entry 0
echo '{"vertices":[{"id":"a"}],"edges":[]}' > "$out/point.json"
test "$(python -m tropcover.cli pair "$out/point.json")" = '{"cycles":[[]],"table":[[0]]}'
# divisor principal reads one divisor file
status=0
python -m tropcover.cli divisor principal tests/data/k4.json tests/data/zero.json tests/data/zero.json 2> "$out/usage.err" || status=$?
test "$status" -eq 2
grep -qF "error: divisor principal needs one divisor file" "$out/usage.err"
# an argument the action does not read is a usage error naming it, exit 2
for case in "divisor equiv tests/data/k4.json tests/data/zero.json tests/data/zero.json --at A|divisor equiv does not take --at" \
    "divisor principal tests/data/k4.json tests/data/zero.json --at A|divisor principal does not take --at" \
    "cover free tests/data/k4.json --cycle BC,BD,CD|cover free does not take --cycle" \
    "cover free tests/data/k4.json tests/data/zero.json|cover free does not take a divisor file" \
    "cover dilated tests/data/k4.json --cycle BC,BD,CD --bits 111|cover dilated does not take --bits" \
    "cover verify tests/golden/k4_cube.json --bits 111|cover verify does not take --bits" \
    "cover pullback tests/golden/k4_cube.json tests/data/zero.json --cycle BC|cover pullback does not take --cycle" \
    "cover pushforward tests/golden/k4_cube.json tests/data/zero.json --bits 111|cover pushforward does not take --bits" \
    "prym components tests/golden/k4_cube.json tests/data/zero.json|prym components does not take a divisor file"; do
  status=0
  python -m tropcover.cli ${case%%|*} > "$out/usage.out" 2> "$out/usage.err" || status=$?
  test "$status" -eq 2
  test ! -s "$out/usage.out"
  grep -qF "error: ${case#*|}" "$out/usage.err"
done
# Prym questions need a connected target: the theta graph a-b plus a loop at c
# has a free cover that verifies, and both Prym verbs exit 3 on it
echo '{"vertices":[{"id":"a"},{"id":"b"},{"id":"c"}],"edges":[{"id":"e1","tail":"a","head":"b","length":"1"},{"id":"e2","tail":"a","head":"b","length":"1"},{"id":"e3","tail":"a","head":"b","length":"1"},{"id":"l","tail":"c","head":"c","length":"1"}]}' > "$out/theta_loop.json"
python -m tropcover.cli cover free "$out/theta_loop.json" --bits 100 > "$out/theta_loop_cover.json"
test "$(python -m tropcover.cli cover verify "$out/theta_loop_cover.json")" = '{"dilation":[],"ok":true,"problems":[]}'
echo '[{"at":{"vertex":"a^0"},"coeff":1},{"at":{"vertex":"a^1"},"coeff":-1}]' > "$out/a0_minus_a1.json"
for argv in "prym components $out/theta_loop_cover.json" "prym contains $out/theta_loop_cover.json $out/a0_minus_a1.json"; do
  status=0
  python -m tropcover.cli $argv 2> "$out/prym.err" || status=$?
  test "$status" -eq 3
  test "$(cat "$out/prym.err")" = "error: prym questions need a connected target graph"
done
