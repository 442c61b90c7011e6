#!/usr/bin/env bash
# One of each: every job below has converged on one mechanism, and each row
# of the table names what a second copy growing back beside it would look
# like. A row *matches* when that pattern is found; any match fails the run.
#
#   scripts/one_of_each.sh        # from anywhere; exit 0 when no row matches
#
# A row is `row STEP KIND PATHS FLAG PATTERN [EXCEPT]`:
#   STEP     the mechanism the row keeps single (the reason, reported);
#   KIND     lines   a non-test line of PATHS matches;
#            count   more than one non-test line of PATHS matches;
#            file    a line of the whole files under PATHS matches;
#            fn:NAME a line of `fn NAME(` in PATHS matches, or it is missing;
#            exists  one of PATHS exists (no FLAG or PATTERN);
#   PATHS    files, globs and directories (searched for `*.rs`);
#   FLAG     the grep syntax of PATTERN: -G (basic), -E or -F;
#   EXCEPT   an extended regex: matching lines it also matches do not count.
# Non-test source is each file up to its first `#[cfg(test)]` line, read as
# `file:line:text`, so a pattern may anchor on the file name.

set -u
shopt -s nullglob
cd "$(dirname "$0")/.." || exit 2

src() {
    local path
    for path in "$@"; do
        if [ -d "$path" ]; then
            find "$path" -name '*.rs' | sort
        elif [ -e "$path" ]; then
            echo "$path"
        fi
    done | while read -r f; do
        awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit } { print f ":" FNR ":" $0 }' "$f"
    done
}

fail=0
rows=0
row() {
    local step=$1 kind=$2 paths=$3 flag=${4:-} pattern=${5:-} except=${6:-} hits body
    # PATHS is split into words and globs on purpose.
    # shellcheck disable=SC2086
    case $kind in
        lines | count)
            hits=$(src $paths | grep "$flag" -e "$pattern" | grep -vE -e "${except:-^$}")
            if [ "$kind" = count ] && [ "$(grep -c . <<<"$hits")" -le 1 ]; then
                hits=
            fi
            ;;
        file)
            hits=$(grep -rn "$flag" -e "$pattern" $paths /dev/null)
            ;;
        fn:*)
            body=$(awk -v name="${kind#fn:}" '$0 ~ "^fn " name "\\(" { on = 1 }
                on { print FILENAME ":" FNR ":" $0 } on && /^}/ { exit }' $paths)
            if [ -z "$body" ]; then
                hits="fn ${kind#fn:} not found in $paths"
            else
                hits=$(grep "$flag" -e "$pattern" <<<"$body")
            fi
            ;;
        exists)
            hits=$(for path in $paths; do [ -e "$path" ] && echo "$path exists"; done)
            ;;
        *)
            echo "unknown kind $kind" >&2
            exit 2
            ;;
    esac
    rows=$((rows + 1))
    if [ -n "$hits" ]; then
        fail=1
        printf 'MATCH  %s: %s %s %s in %s\n' "$step" "$kind" "$flag" "$pattern" "$paths"
        sed 's/^/         /' <<<"$hits"
    else
        printf 'ok     %s: %s %s %s\n' "$step" "$kind" "$flag" "${pattern:-$paths}"
    fi
}

# Joins and pivots probe packed keys through `olap_engine::attach`; a
# coordinate-keyed hash index must not grow back beside it.
step='No coordinate hash joins'
row "$step" file 'crates/core/src crates/engine/src/engine.rs' -E 'HashMap<Coordinate|build_index\('

# Every fact scan — query, view delta-merge, view rebuild — is one plan
# (`ScanCtx`) run by one driver (`Engine::run_scan`); a second planner,
# morsel scan, driver or group table must not grow back beside them.
step='One scan plan, one driver'
row "$step" count 'crates/engine/src/*.rs' -G 'impl MorselScan for'
row "$step" lines 'crates/engine/src/*.rs' -G 'GroupTable::new'
row "$step" lines 'crates/engine/src/*.rs' -G 'run_morsels(' '^crates/engine/src/engine.rs:'

# Every `get` is one packed-key morsel scan: the foreign-key hash-index fast
# path, the boxed-coordinate wide-key fold and their two `EngineConfig`
# knobs are gone, and a group-by wider than 64 bits is refused with
# `EngineError::WideKey`. A second access path must not grow back.
step='One access path'
row "$step" lines 'crates/*/src' -E 'GroupTable|HashIndex|hash_index\(|aggregate_rows|use_indexes|index_selectivity''|ScanPath::Index|ScanPath::Wide|mod wide'

# Over a direct layout a scan folds every row straight into its key's state
# and hands out its partials in key order; morsel and shard partials merge
# through `Aggregator::merge`, which emits in key order too. So the morsel
# driver and view maintenance neither index a partial's keys nor re-sort one.
step='One fold per layout, no re-sort'
row "$step" lines 'crates/engine/src/pool.rs crates/engine/src/maintain.rs' -F 'Grouper::over('
row "$step" lines 'crates/engine/src/pool.rs crates/engine/src/maintain.rs' -F '.key_order('

# Every layout folds and merges through the per-key run kernel (`StateOp`
# over `fold_runs`); a hashed layout only resolves its keys to slot
# positions first. The view merge-walk takes its identity and operator from
# `StateOp` too. The slot fold and a second operator table must not grow back.
step='One fold kernel'
row "$step" lines 'crates/engine/src/aggregate.rs crates/engine/src/maintain.rs' -E '^crates/engine/src/aggregate\.rs:.*(fn scatter|fn count_rows|fold_slots|merge_rows|grow_to)'
row "$step" lines 'crates/engine/src/aggregate.rs crates/engine/src/maintain.rs' -E '^crates/engine/src/maintain\.rs:.*fn distributive'

# A view is its defining get: the engine builds it (`Engine::materialize_view`)
# as the scan's ascending keys and finalized values, and an append merges it
# in one walk over keys. Coordinate columns, sourceless views, a sort of
# views registered out of key order and a view assembled outside the engine
# must not grow back.
step='One view representation'
views='crates/storage/src/mview.rs crates/engine/src/maintain.rs crates/ssb/src/*.rs'
row "$step" lines "$views" -E '^crates/storage/src/mview\.rs:.*(fn coord_cols|fn with_source)'
row "$step" lines "$views" -E '^crates/engine/src/maintain\.rs:.*(is_sorted|sort_by)'
row "$step" lines "$views" -E '^crates/ssb/src/.*MaterializedAggregate::new'

# "Can query A answer query B" is decided once, by the cube algebra's
# containment relation `CubeQuery::relate` in olap-model: view matching
# (`Catalog::best_view`), the W108 lint and result-cache survival across
# appends all call it. A second containment test — per-view matching, a
# workload subsumption order, per-entry member masks — or the catalog's
# unread delta ring must not grow back.
step='One containment relation'
row "$step" lines 'crates/storage/src crates/core/src crates/serve/src' -E 'fn (answers|subsumes|entry_scope|overlaps_mask|deltas_since)\b|struct EntryScope\b'

# A view's stored keys unpack into scan lanes column by column, one pass
# over the keys per group-by component (`KeyLayout::codes`), and a get that
# groups as its view does is read, not folded. The per-key, per-component
# unpack must not come back into the partial aggregates.
step='Column-wise emit'
row "$step" lines 'crates/engine/src/aggregate.rs' -E 'unpack_component'

# Every shard is a `ShardTransport`: the coordinator forwards the remaining
# budget, checks the partial, charges its rows on receipt and tags errors by
# shard, whatever the transport. An in-process shard arm (a sub-engine over
# another catalog) and its `--shards` topology must not grow back.
step='One scatter-gather arm'
row "$step" lines 'crates/engine/src/*.rs crates/ssb/src/*.rs src/bin/assess_serve.rs' -E 'Shard::Local|enum Shard\b|fn for_shard|ShardSet::local|fn sharded_engine|"--shards"'

# Table 1's SQL is rendered by one client-side instrument (`assess-core`'s
# `codegen`); the engine renders no SQL. olap-storage keeps one column
# reader per job: `DataChunk::key_lane`/`f64_lane` for scan kernels,
# `Column::i64_iter` for row-at-a-time key reads,
# `Table::require_key_like`/`require_numeric` for planning. The SSB
# generator always encodes fact keys. A second renderer, reader or layout
# knob must not grow back.
step='One Table 1 instrument, one reader per job'
row "$step" lines 'crates/*/src' -E 'sqlgen|join_sql|char_length\(|NumericSlice|numeric_slice\(|KeyAccess''|key_access\(|with_selection|encode_facts'

# Every op of `assess-serve` that takes a statement walks the stages of
# `crates/serve/src/statement.rs`: one parse (the `E001` diagnostic itself
# is built in `assess-sql`), one limit derivation, one error → wire-code
# table, one queued-cancel answer. A per-op copy must not grow back.
step='One statement pipeline'
row "$step" count 'crates/serve/src/*.rs' -F 'parse_spanned('
row "$step" count 'crates/serve/src/*.rs' -F 'AssessError::BudgetExceeded'
row "$step" count 'crates/serve/src/*.rs' -F '"cancelled while queued"'
row "$step" lines 'crates/serve/src/*.rs' -F 'derive_policy(' '^crates/serve/src/(statement|admission)\.rs:'
row "$step" file 'crates/serve/src src/bin' -G 'DiagCode::E001'

# `check` and `resolve` are two faces of one binder (`Analyzer::bind` in
# `analyze.rs`): each binding error's message is spelled once, the analyzer
# does not resolve on its own, and a served statement is bound in
# `crates/serve/src/statement.rs` only, once.
step='One binder'
for phrase in "is the target's own slice" "must appear in the by clause" \
    "slice on the target" "strictly coarser than the group-by level" \
    "needs the hierarchy of" '`against past 0` is empty' "the by clause is empty" \
    "cannot be applied to external cube" "using references benchmark."; do
    row "$step" count 'crates/core/src/*.rs' -F "$phrase"
done
row "$step" lines 'crates/core/src/analyze.rs' -E 'ResolvedAssess::resolve\(|span_for_error'
binds='check_spanned\(|\.bind\(|\.resolve\(|Analyzer::'
row "$step" lines 'crates/serve/src/*.rs' -E "$binds" '^crates/serve/src/statement\.rs:'
row "$step" count 'crates/serve/src/statement.rs' -E "$binds"

# The paper harness measures in one loop (`runs::run_matrix`) and renders
# each artifact once (`artifacts.rs`); the binaries only parse flags and
# print renderers. Per-bin timing loops, a second renderer and the Criterion
# benches must not grow back.
step='One paper harness'
row "$step" exists 'crates/bench/benches crates/shim-criterion'
row "$step" lines 'crates/bench/src/*.rs crates/bench/src/bin/*.rs' -E 'Instant|\.execute\(|\.run\(|run_auto\(' '^crates/bench/src/runs\.rs:'
row "$step" lines 'crates/bench/src/bin/*.rs' -F 'render_table('

# A label is a code into its column's label table, written by the column
# kernel `labeling::codes` and read back as a string only when a result is
# rendered. A string-keyed code lookup, a constructor from label strings, a
# sorting quantile pass or a per-cell label string must not grow back beside
# it (`labeling::apply` is the one string adapter).
step='One label path'
row "$step" lines 'crates/core/src/*.rs crates/olap-model/src/*.rs' -E 'HashMap<String, u32>|from_labels'
row "$step" lines 'crates/core/src/labeling.rs' -F '.sort_by('
row "$step" lines 'crates/core/src/*.rs crates/olap-model/src/*.rs' -F 'Vec<Option<String>>' '^crates/core/src/labeling\.rs:[0-9]+:pub fn apply\('

# A subscription keeps its previous evaluation as a cube, diffs the next one
# against it column by column (`AssessedCube::diff`) and decodes only the
# cells that travel. A string-keyed cell index, or decoding every
# re-evaluated cell in `notify_subscriptions`, must not grow back.
step='One subscription diff'
row "$step" lines 'crates/serve/src/*.rs' -E 'CellIndex|index_cells\(|diff_cells\(|BTreeMap<Vec<String>, AssessedCell>'
row "$step" fn:notify_subscriptions 'crates/serve/src/server.rs' -F '.cells()'

# A cube's coordinates are its packed key column: `get` hands its keys over
# as they are, the client-side join probes the cubes' own keys and
# `AssessedCube::diff` merge-walks them. `KeyLayout` lives in olap-model
# beside `GroupBySet`. A re-pack of coordinate columns, a column-by-column
# coordinate compare, an unpacking emit, a coordinate column field or a
# second key module must not grow back.
step='One cube representation'
row "$step" lines 'crates/olap-model/src/*.rs crates/engine/src/*.rs crates/core/src/*.rs' -E 'fn pack_cells|fn compare_coordinates|fn emit\(|:[0-9]+: +coord_cols:'
row "$step" exists 'crates/engine/src/key.rs'

# A `Partial` carries its measures' operators and their `StateOp` state
# columns, so `StateOp::of` is the one operator-state table: fold, merge,
# finalize and the shard codec read the columns as they stand. A
# per-operator accumulator enum must not grow back, nor a null mask on key
# columns, which never hold a null.
step='One operator-state table'
row "$step" lines 'crates/engine/src/*.rs crates/serve/src/*.rs' -E 'enum Accumulator|Accumulator::'
row "$step" lines 'crates/storage/src/*.rs' -E 'struct Validity|with_validity'

# The cost model's ranking (`cost::estimate_all`, cheapest plan first) is the
# one strategy order: `run_auto` and `batch` fall back along it and a pinned
# strategy is a one-plan ladder. A fixed fallback constant, a policy switch
# for it, an acronym-to-strategy round-trip in the cost model or the
# engine's test-only join/pivot wrappers must not grow back.
step='One strategy order'
row "$step" lines 'crates/core/src/*.rs' -E 'LADDER|without_fallback|policy\.fallback'
row "$step" file 'crates/core/src/cost.rs' -F '"NP" =>'
row "$step" file 'crates/serve/src/*.rs' -F 'policy.fallback'
row "$step" file 'crates/engine/src/engine.rs' -E 'fn (get_join|get_join_sliced|get_pivot)\b'

# Every frame the service sends or reads (requests, responses, subscription
# frames, shard partials) goes through the JSON shim once: the writer renders
# a `Value` where it stands (`Serialize::as_value`) with numbers and string
# runs written straight into the output, and the parser hands its tree to
# the caller (`Deserialize::from_owned`). A tree copy on either side or a
# temporary string per number must not grow back.
step='One JSON tree'
row "$step" lines 'crates/shim-serde-json/src/*.rs' -F 'value.to_value()'
row "$step" lines 'crates/shim-serde-json/src/*.rs' -F 'T::from_value(&value)'
row "$step" lines 'crates/shim-serde-json/src/*.rs' -F 'format!("{n}")'

# The catalog version is the cache's one invalidation, and the session keeps
# no request history beside its counters. `metrics` is the exposition only;
# `stats` is the JSON form.
step='One cache invalidation, one counter JSON'
row "$step" lines 'crates/serve/src/*.rs' -E 'invalidate_all|InvalidateCache|HistoryEntry|fn history'
row "$step" fn:metrics_response 'crates/serve/src/server.rs' -F '("serve",'
row "$step" lines 'crates/core/src/*.rs' -F 'fn run_checked'

echo "$rows rows, $([ "$fail" = 0 ] && echo 'none matched' || echo 'some matched')"
exit $fail
