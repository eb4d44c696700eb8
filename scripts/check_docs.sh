#!/usr/bin/env bash
# check_docs.sh — keep the prose honest. Machine checks over the docs:
#
#   1. Every relative markdown link in README.md, ROADMAP.md and docs/*.md
#      resolves to a file or directory in the repo (anchors stripped;
#      absolute URLs ignored). A renamed file that leaves a dangling link
#      fails here, not in a reader's browser.
#
#   2. Every row of the FORMAT.md §8 constants table (the region between the
#      <!-- constants:begin --> and <!-- constants:end --> markers) matches a
#      constant of the same name AND value in internal/fmbin/fmbin.go. The
#      spec is normative, the Go file is the reference implementation; this
#      grep is what lets each claim the other can't drift.
#
#   3. The OBSERVABILITY.md metrics table (between <!-- metrics:begin --> and
#      <!-- metrics:end -->) and the fm_* family literals in
#      internal/serve/metrics.go agree in BOTH directions: every documented
#      family exists in the code, every family in the code is documented.
#
#   4. The ARCHITECTURE.md compute-tiers table (between <!-- tiers:begin -->
#      and <!-- tiers:end -->) agrees with internal/core in BOTH directions:
#      the tier names match the Tier* constants in options.go.
#
#   5. The task-registry tables in README.md and docs/ARCHITECTURE.md
#      (between <!-- tasks:begin --> and <!-- tasks:end -->) agree with the
#      registry source in BOTH directions: every documented task name matches
#      a TaskName… constant in internal/core/registry.go and vice versa, and
#      every documented sensitivity formula is the verbatim
#      SensitivityFormula string of a registered spec and vice versa.
#
#   6. Every BENCH_pr<N>.json a doc names is a committed file, and a
#      README.md or docs/*.md paragraph that names scripts/bench_check.sh
#      together with a baseline file names the one the gate reads: the
#      script's default BASE. (ROADMAP.md plans may discuss other files.)
#
#   7. The README.md endpoint tables (those headed "| Endpoint |") and the
#      routes serve.New registers in internal/serve/server.go agree in BOTH
#      directions: every backticked `METHOD /path` in a row's first cell is
#      a registered pattern, and every registered pattern has a row.
#
#   8. The docs name only commands and packages that exist. The README.md
#      Layout row for `cmd/` and the directories under cmd/ agree in BOTH
#      directions, and every backticked cmd/<name> or internal/<name> in
#      README.md and docs/*.md is a directory in the repo. (ROADMAP.md plans
#      name past and future paths.)
#
#   9. The option lists in the README.md endpoint rows for `POST /v1/fit`
#      and `POST /v1/streams/{name}/refit` (the parenthesized list of
#      backticked names, `epsilon` aside) and the JSON tags of the strict
#      decoders' option structs (fitOptions in internal/serve/server.go,
#      refitOptions in internal/serve/streams.go) agree in BOTH directions.
#
#  10. The README.md fmserve flag table (between <!-- fmserve-flags:begin -->
#      and <!-- fmserve-flags:end -->) and the flags cmd/fmserve/main.go
#      defines (every flag.*("name", ...) call) agree in BOTH directions:
#      every backticked -name in a row's first cell is a defined flag, and
#      every defined flag has a row.
#
#  11. The README.md refusal table (between <!-- records:begin --> and
#      <!-- records:end -->) names only Go code that exists. Every backticked
#      Go name in it resolves in the non-test Go files outside testdata/:
#      `Type.Method` to a method declared on a type of that name, and a bare
#      exported name to a declared func, method or type. A backticked span
#      that is not a Go name (`fmrun fit`, `POST /v1/datasets`) is prose.
#
# Run locally or in CI (the docs job); no dependencies beyond POSIX tools.
set -euo pipefail

cd "$(dirname "$0")/.."

fail=0
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# --- 1. relative links resolve -------------------------------------------
# Pipelines spawn subshells, so dangling links are collected in a file and
# the verdict read back from it.
docs=(README.md ROADMAP.md docs/*.md)
: > "$WORK/dangling"
for doc in "${docs[@]}"; do
  [ -f "$doc" ] || continue
  dir="$(dirname "$doc")"
  # Pull out the (target) of every [text](target); one per line.
  grep -oE '\]\([^)]+\)' "$doc" | sed -e 's/^](//' -e 's/)$//' > "$WORK/targets" || true
  while IFS= read -r target; do
    case "$target" in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    path="${target%%#*}"            # strip in-page anchor
    [ -n "$path" ] || continue
    # Links are relative to the file that contains them.
    if [ ! -e "$dir/$path" ]; then
      echo "check-docs: $doc: dangling link -> $target" >&2
      echo "$doc $target" >> "$WORK/dangling"
    fi
  done < "$WORK/targets"
done
[ -s "$WORK/dangling" ] && fail=1

# --- 2. FORMAT.md constants table matches internal/fmbin/fmbin.go --------
spec=docs/FORMAT.md
src=internal/fmbin/fmbin.go
rows="$(sed -n '/<!-- constants:begin -->/,/<!-- constants:end -->/p' "$spec" |
        grep -E '^\| `' || true)"
if [ -z "$rows" ]; then
  echo "check-docs: no constants table between markers in $spec" >&2
  fail=1
fi
n=0
while IFS= read -r row; do
  # | `Name` | `value` |  ->  Name, value
  name="$(printf '%s' "$row" | sed -E 's/^\| `([^`]+)`.*/\1/')"
  value="$(printf '%s' "$row" | sed -E 's/^\| `[^`]+` *\| `([^`]+)` *\|$/\1/')"
  if [ -z "$name" ] || [ -z "$value" ] || [ "$value" = "$row" ]; then
    echo "check-docs: unparseable constants row: $row" >&2
    fail=1
    continue
  fi
  # The Go block writes `Name = value` (gofmt may align with extra spaces).
  if ! grep -Eq "^[[:space:]]*${name}[[:space:]]*=[[:space:]]*${value}([[:space:]]|$)" "$src"; then
    echo "check-docs: $spec says ${name} = ${value}, but $src disagrees" >&2
    fail=1
  fi
  n=$((n + 1))
done <<EOF
$rows
EOF

# --- 3. OBSERVABILITY.md metrics table <-> internal/serve/metrics.go -----
obsdoc=docs/OBSERVABILITY.md
obssrc=internal/serve/metrics.go
sed -n '/<!-- metrics:begin -->/,/<!-- metrics:end -->/p' "$obsdoc" |
  grep -E '^\| `fm_' | sed -E 's/^\| `([^`]+)`.*/\1/' | sort > "$WORK/doc_metrics"
grep -oE '"fm_[a-z_]+"' "$obssrc" | tr -d '"' | sort -u > "$WORK/src_metrics"
if [ ! -s "$WORK/doc_metrics" ]; then
  echo "check-docs: no metrics table between markers in $obsdoc" >&2
  fail=1
fi
while IFS= read -r name; do
  if ! grep -qx "$name" "$WORK/src_metrics"; then
    echo "check-docs: $obsdoc documents $name, but $obssrc does not define it" >&2
    fail=1
  fi
done < "$WORK/doc_metrics"
while IFS= read -r name; do
  if ! grep -qx "$name" "$WORK/doc_metrics"; then
    echo "check-docs: $obssrc defines $name, but $obsdoc has no table row for it" >&2
    fail=1
  fi
done < "$WORK/src_metrics"
m="$(wc -l < "$WORK/doc_metrics" | tr -d ' ')"

# --- 4. ARCHITECTURE.md compute-tiers table <-> internal/core ------------
archdoc=docs/ARCHITECTURE.md
tiersrc=internal/core/options.go
sed -n '/<!-- tiers:begin -->/,/<!-- tiers:end -->/p' "$archdoc" |
  grep -E '^\| `' | sed -E 's/^\| `([^`]+)`.*/\1/' | sort > "$WORK/doc_tiers"
grep -oE 'Tier[A-Z][A-Za-z]*[[:space:]]*=[[:space:]]*"[a-z]+"' "$tiersrc" |
  sed -E 's/.*"([a-z]+)"/\1/' | sort -u > "$WORK/src_tiers"
if [ ! -s "$WORK/doc_tiers" ]; then
  echo "check-docs: no compute-tiers table between markers in $archdoc" >&2
  fail=1
fi
while IFS= read -r name; do
  if ! grep -qx "$name" "$WORK/src_tiers"; then
    echo "check-docs: $archdoc documents tier $name, but $tiersrc has no Tier constant for it" >&2
    fail=1
  fi
done < "$WORK/doc_tiers"
while IFS= read -r name; do
  if ! grep -qx "$name" "$WORK/doc_tiers"; then
    echo "check-docs: $tiersrc defines tier \"$name\", but $archdoc has no table row for it" >&2
    fail=1
  fi
done < "$WORK/src_tiers"
t="$(wc -l < "$WORK/doc_tiers" | tr -d ' ')"

# --- 5. task-registry tables <-> internal/core ----------------------------
regsrc=internal/core/registry.go
grep -oE 'TaskName[A-Z][A-Za-z]*[[:space:]]*=[[:space:]]*"[a-z]+"' "$regsrc" |
  sed -E 's/.*"([a-z]+)"/\1/' | sort -u > "$WORK/src_tasks"
grep -hoE 'SensitivityFormula:[[:space:]]*"[^"]+"' internal/core/*.go |
  sed -E 's/^SensitivityFormula:[[:space:]]*"(.*)"$/\1/' | sort -u > "$WORK/src_formulas"
if [ ! -s "$WORK/src_tasks" ] || [ ! -s "$WORK/src_formulas" ]; then
  echo "check-docs: could not extract task names/formulas from internal/core" >&2
  fail=1
fi
for doc in README.md docs/ARCHITECTURE.md; do
  sed -n '/<!-- tasks:begin -->/,/<!-- tasks:end -->/p' "$doc" |
    grep -E '^\| `' > "$WORK/task_rows" || true
  if [ ! -s "$WORK/task_rows" ]; then
    echo "check-docs: no task-registry table between markers in $doc" >&2
    fail=1
    continue
  fi
  sed -E 's/^\| `([a-z]+)`.*/\1/' "$WORK/task_rows" | sort > "$WORK/doc_tasks"
  while IFS= read -r name; do
    if ! grep -qx "$name" "$WORK/src_tasks"; then
      echo "check-docs: $doc documents task $name, but $regsrc has no TaskName constant for it" >&2
      fail=1
    fi
  done < "$WORK/doc_tasks"
  while IFS= read -r name; do
    if ! grep -qx "$name" "$WORK/doc_tasks"; then
      echo "check-docs: $regsrc registers \"$name\", but $doc has no task-table row for it" >&2
      fail=1
    fi
  done < "$WORK/src_tasks"
  # Sensitivity column: the second backticked field of each row must be the
  # verbatim SensitivityFormula string of some registered spec.
  : > "$WORK/doc_formulas"
  while IFS= read -r row; do
    formula="$(printf '%s' "$row" | sed -E 's/^\| `[^`]+` \| [0-9]+ \| `([^`]+)` \|.*$/\1/')"
    if [ -z "$formula" ] || [ "$formula" = "$row" ]; then
      echo "check-docs: unparseable task-table row in $doc: $row" >&2
      fail=1
      continue
    fi
    printf '%s\n' "$formula" >> "$WORK/doc_formulas"
    if ! grep -qxF "$formula" "$WORK/src_formulas"; then
      echo "check-docs: $doc lists sensitivity \"$formula\", but no spec in internal/core declares it" >&2
      fail=1
    fi
  done < "$WORK/task_rows"
  while IFS= read -r formula; do
    if ! grep -qxF "$formula" "$WORK/doc_formulas"; then
      echo "check-docs: internal/core declares sensitivity \"$formula\", but $doc does not document it" >&2
      fail=1
    fi
  done < "$WORK/src_formulas"
done
k="$(wc -l < "$WORK/src_tasks" | tr -d ' ')"

# --- 6. benchmark baselines named in the docs ------------------------------
gatesrc=scripts/bench_check.sh
gatebase="$(sed -nE 's/^BASE="\$\{BENCH_BASE:-([^}]+)\}"$/\1/p' "$gatesrc")"
if [ -z "$gatebase" ]; then
  echo "check-docs: could not read the default BASE from $gatesrc" >&2
  fail=1
fi
: > "$WORK/baselines"
for doc in "${docs[@]}"; do
  [ -f "$doc" ] || continue
  grep -oE 'BENCH_pr[0-9]+\.json' "$doc" | sort -u > "$WORK/named" || true
  while IFS= read -r file; do
    echo "$file" >> "$WORK/baselines"
    if [ ! -f "$file" ]; then
      echo "check-docs: $doc names $file, but no such file is committed" >&2
      fail=1
    fi
  done < "$WORK/named"
  [ "$doc" = ROADMAP.md ] && continue
  # Paragraph mode (RS=""): blank lines separate records.
  awk -v RS= -v doc="$doc" -v base="$gatebase" '
    /bench_check\.sh/ {
      p = $0
      while (match(p, /BENCH_pr[0-9]+\.json/)) {
        f = substr(p, RSTART, RLENGTH)
        if (f != base) {
          printf "check-docs: %s names %s beside scripts/bench_check.sh, whose default BASE is %s\n", doc, f, base
        }
        p = substr(p, RSTART + RLENGTH)
      }
    }' "$doc" > "$WORK/gate_errs"
  if [ -s "$WORK/gate_errs" ]; then
    cat "$WORK/gate_errs" >&2
    fail=1
  fi
done
g="$(sort -u "$WORK/baselines" | wc -l | tr -d ' ')"

# --- 7. README endpoint tables <-> routes registered in serve.New ----------
routesrc=internal/serve/server.go
grep -oE 's\.mux\.Handle(Func)?\("[A-Z]+ [^"]+"' "$routesrc" |
  sed -E 's/^[^"]*"([^"]+)"$/\1/' | sort -u > "$WORK/src_routes"
awk '
  /^\| Endpoint \|/ { in_table = 1; next }
  in_table && !/^\|/ { in_table = 0 }
  in_table {
    split($0, cells, "|")
    cell = cells[2]
    while (match(cell, /`(GET|POST|PUT|PATCH|DELETE) \/[^`]*`/)) {
      print substr(cell, RSTART + 1, RLENGTH - 2)
      cell = substr(cell, RSTART + RLENGTH)
    }
  }' README.md | sort -u > "$WORK/doc_routes"
if [ ! -s "$WORK/src_routes" ] || [ ! -s "$WORK/doc_routes" ]; then
  echo "check-docs: could not extract routes from $routesrc or endpoint tables from README.md" >&2
  fail=1
fi
while IFS= read -r route; do
  if ! grep -qxF "$route" "$WORK/src_routes"; then
    echo "check-docs: README.md documents $route, but $routesrc registers no such route" >&2
    fail=1
  fi
done < "$WORK/doc_routes"
while IFS= read -r route; do
  if ! grep -qxF "$route" "$WORK/doc_routes"; then
    echo "check-docs: $routesrc registers $route, but no README.md endpoint table lists it" >&2
    fail=1
  fi
done < "$WORK/src_routes"
e="$(wc -l < "$WORK/src_routes" | tr -d ' ')"

# --- 8. named commands and packages exist ---------------------------------
for dir in cmd/*/; do basename "$dir"; done | sort > "$WORK/src_cmds"
grep -E '^\| `cmd/` \|' README.md | sed -E 's/^\| `cmd\/` \|//' |
  grep -oE '`[^`]+`' | tr -d '`' | sort > "$WORK/doc_cmds" || true
if [ ! -s "$WORK/doc_cmds" ]; then
  echo "check-docs: no \`cmd/\` row in the README.md Layout table" >&2
  fail=1
fi
while IFS= read -r name; do
  if ! grep -qxF "$name" "$WORK/src_cmds"; then
    echo "check-docs: README.md's cmd/ row lists $name, but there is no cmd/$name" >&2
    fail=1
  fi
done < "$WORK/doc_cmds"
while IFS= read -r name; do
  if ! grep -qxF "$name" "$WORK/doc_cmds"; then
    echo "check-docs: cmd/$name exists, but README.md's cmd/ row does not list it" >&2
    fail=1
  fi
done < "$WORK/src_cmds"
c="$(wc -l < "$WORK/src_cmds" | tr -d ' ')"
: > "$WORK/named_dirs"
for doc in README.md docs/*.md; do
  [ -f "$doc" ] || continue
  grep -oE '`[^`]+`' "$doc" | grep -oE '(^|[^A-Za-z0-9_])(cmd|internal)/[A-Za-z0-9_-]+' |
    sed -E 's/^[^A-Za-z0-9_]//' | sort -u > "$WORK/named" || true
  while IFS= read -r dir; do
    echo "$dir" >> "$WORK/named_dirs"
    if [ ! -d "$dir" ]; then
      echo "check-docs: $doc names $dir, but no such directory exists" >&2
      fail=1
    fi
  done < "$WORK/named"
done
d="$(sort -u "$WORK/named_dirs" | wc -l | tr -d ' ')"

# --- 9. README option lists <-> the strict decoders' option structs --------
o=0
for spec in "POST /v1/fit|fitOptions|internal/serve/server.go" \
            "POST /v1/streams/{name}/refit|refitOptions|internal/serve/streams.go"; do
  route="${spec%%|*}"
  struct="${spec#*|}"; struct="${struct%%|*}"
  optsrc="${spec##*|}"
  grep -F "| \`$route\` |" README.md |
    grep -oE '\(`[a-z_]+`(, `[a-z_]+`)*\)' | grep -oE '`[a-z_]+`' | tr -d '`' |
    grep -vx epsilon | sort -u > "$WORK/doc_opts" || true
  sed -n "/^type $struct struct {/,/^}/p" "$optsrc" |
    grep -oE 'json:"[a-z_]+' | sed 's/^json:"//' | sort -u > "$WORK/src_opts"
  if [ ! -s "$WORK/doc_opts" ] || [ ! -s "$WORK/src_opts" ]; then
    echo "check-docs: could not extract the $route options from README.md or $struct from $optsrc" >&2
    fail=1
    continue
  fi
  while IFS= read -r opt; do
    if ! grep -qx "$opt" "$WORK/src_opts"; then
      echo "check-docs: README.md lists option $opt for $route, but $struct in $optsrc has no such field" >&2
      fail=1
    fi
  done < "$WORK/doc_opts"
  while IFS= read -r opt; do
    if ! grep -qx "$opt" "$WORK/doc_opts"; then
      echo "check-docs: $struct in $optsrc decodes option $opt, but README.md's $route row does not list it" >&2
      fail=1
    fi
  done < "$WORK/src_opts"
  o=$((o + $(wc -l < "$WORK/src_opts" | tr -d ' ')))
done

# --- 10. README fmserve flag table <-> the flags cmd/fmserve defines -------
flagsrc=cmd/fmserve/main.go
grep -oE 'flag\.[A-Za-z]+\("[a-z-]+"' "$flagsrc" | sed -E 's/^[^"]*"([^"]+)"$/\1/' | sort -u > "$WORK/src_flags"
sed -n '/<!-- fmserve-flags:begin -->/,/<!-- fmserve-flags:end -->/p' README.md |
  grep -E '^\| `-' | sed -E 's/^\| `-([^`]+)`.*/\1/' | sort > "$WORK/doc_flags"
if [ ! -s "$WORK/src_flags" ] || [ ! -s "$WORK/doc_flags" ]; then
  echo "check-docs: could not extract flags from $flagsrc or the fmserve flag table from README.md" >&2
  fail=1
fi
while IFS= read -r name; do
  if ! grep -qxF "$name" "$WORK/src_flags"; then
    echo "check-docs: README.md documents fmserve flag -$name, but $flagsrc defines no such flag" >&2
    fail=1
  fi
done < "$WORK/doc_flags"
while IFS= read -r name; do
  if ! grep -qxF "$name" "$WORK/doc_flags"; then
    echo "check-docs: $flagsrc defines flag -$name, but README.md's fmserve flag table has no row for it" >&2
    fail=1
  fi
done < "$WORK/src_flags"
f="$(wc -l < "$WORK/src_flags" | tr -d ' ')"

# --- 11. README refusal table <-> Go declarations --------------------------
find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -print0 |
  xargs -0 cat > "$WORK/src_go"
# Methods as Type.Method (receiver type without its pointer or type
# parameters), and every declared func, method and type name.
sed -nE 's/^func \(([A-Za-z_][A-Za-z0-9_]* )?\*?([A-Za-z_][A-Za-z0-9_]*)(\[[^]]*\])?\) ([A-Za-z_][A-Za-z0-9_]*).*/\2.\4/p' \
  "$WORK/src_go" | sort -u > "$WORK/src_methods"
{
  sed -E 's/.*\.//' "$WORK/src_methods"
  sed -nE 's/^func ([A-Za-z_][A-Za-z0-9_]*).*/\1/p' "$WORK/src_go"
  sed -nE 's/^type ([A-Za-z_][A-Za-z0-9_]*).*/\1/p' "$WORK/src_go"
} | sort -u > "$WORK/src_names"
sed -n '/<!-- records:begin -->/,/<!-- records:end -->/p' README.md |
  grep -E '^\|' | grep -oE '`[^`]+`' | tr -d '`' |
  grep -E '^([A-Z][A-Za-z0-9_]*|[A-Za-z_][A-Za-z0-9_]*\.[A-Za-z_][A-Za-z0-9_]*)$' |
  sort -u > "$WORK/doc_gonames" || true
if [ ! -s "$WORK/doc_gonames" ]; then
  echo "check-docs: no Go names in the README.md refusal table (<!-- records:begin --> … <!-- records:end -->)" >&2
  fail=1
fi
while IFS= read -r name; do
  case "$name" in
    *.*) list="$WORK/src_methods"; what="a method declared on ${name%%.*}" ;;
    *) list="$WORK/src_names"; what="a declared func, method or type" ;;
  esac
  if ! grep -qxF "$name" "$list"; then
    echo "check-docs: README.md's refusal table names $name, but it is not $what in the non-test Go" >&2
    fail=1
  fi
done < "$WORK/doc_gonames"
r="$(wc -l < "$WORK/doc_gonames" | tr -d ' ')"

if [ "$fail" -ne 0 ]; then
  echo "check-docs: FAIL" >&2
  exit 1
fi
echo "check-docs: PASS (links resolve; $n spec constants match $src; $m metric families match $obssrc; $t tiers match internal/core; $k registry tasks match README.md and docs/ARCHITECTURE.md; $g named bench baselines exist, gate baseline $gatebase; $e routes match README.md; $c commands match README.md's cmd/ row; $d named cmd/ and internal/ directories exist; $o fit and refit options match README.md; $f fmserve flags match README.md; $r Go names in README.md's refusal table exist)"
