#!/usr/bin/env bash
# Docs gate: the documents that describe the system as it is name only
# flags, tests, commands and symbols that exist. Checked: every inline
# code span that starts with a flag or with one of our commands, every
# command line in a fenced block that runs one of them, every
# Test*/Benchmark*/Fuzz* name in an inline span (a trailing * or { makes
# it a prefix), every `go run ./<dir>` directory, every inline span that is a `pkg.Symbol` or
# `pkg.Type.Member`, which `go doc` must find (our packages by
# directory, standard ones by name), and every inline span that is a
# bare `Type.Member`, which `go doc -u` must find in some package of
# this module (unexported members count; an unexported type does not
# answer to its capitalized name). CHANGES.md,
# ROADMAP.md and ISSUE.md are history and plans — they name what was
# removed on purpose — and PAPER(S).md/SNIPPETS.md are not about this
# code, so none of them is read here.
set -euo pipefail
cd "$(dirname "$0")/.."

DOCS=(README.md ARCHITECTURE.md DESIGN.md EXPERIMENTS.md docs/*.md .claude/skills/verify/SKILL.md)
# Commands whose flags this repository defines or documents.
OURS='(bin|\$BIN|"\$BIN"|prudentia|/tmp/prudentia-bin|go run \./cmd/[a-z]+|go run \./bench|bash bench/run\.sh|go test)'

flags="$(
    { go run ./cmd/prudentia -h 2>&1 || true
      go run ./cmd/prudentia pair -h 2>&1 || true
      go run ./bench -h 2>&1 || true
    } | sed -n 's/^  -\([a-z0-9-]*\).*/\1/p'
    # -h, the go test flags the docs use, and TestFigures' -update.
    printf '%s\n' h run bench benchtime benchmem count race short timeout fuzz fuzztime cover list v cpu update
)"
tests="$(go test -list . ./... | grep -E '^(Test|Benchmark|Fuzz)')"
pkgdirs="$(go list -f '{{.Dir}}' ./...)"

# member_found Type.Member: go doc -u finds it in a package whose files
# declare Type (the grep only narrows the packages go doc is asked).
member_found() {
    local dir
    for dir in $(grep -lE "^(type[[:space:]]+|[[:space:]]+)${1%%.*}([[:space:]]|\[)" $(printf '%s/*.go ' $pkgdirs) 2>/dev/null |
        xargs -r -n1 dirname | sort -u); do
        go doc -u "$dir" "$1" >/dev/null 2>&1 && return 0
    done
    return 1
}

bad=0
declare -A documented # symbol span -> 1 (found) or 0, so go doc runs once per symbol
for doc in "${DOCS[@]}"; do
    [ -e "$doc" ] || continue
    # Inline spans may wrap across lines: drop fenced blocks, then match
    # spans over the whole text. Fenced blocks become one logical line
    # per command (continuations joined, anything after a pipe dropped).
    inline="$(awk '/^[[:space:]]*```/ { f = !f; next } !f' "$doc" | tr '\n' ' ' | grep -o '`[^`]*`' | tr -d '`' || true)"
    fenced="$(awk '/^[[:space:]]*```/ { f = !f; next }
        f { line = line $0; if (sub(/\\$/, " ", line)) next; sub(/ \| .*/, "", line); print line; line = "" }' "$doc")"
    cited="$(
        { grep -E "^(-|$OURS )" <<<"$inline" || true
          grep -E "^[[:space:]]*([A-Z_]+=[^ ]* )*$OURS " <<<"$fenced" || true
        } | { grep -oE '(^|[ =])--?[a-z][a-z0-9-]*' || true; } | sed -E 's/^[ =]*--?//' | sort -u
    )"
    for flag in $cited; do
        if ! grep -qx -- "$flag" <<<"$flags"; then
            echo "ci: $doc names -$flag, which no command here defines" >&2
            bad=1
        fi
    done
    # A deleted command's flags may live on elsewhere, so the flag check
    # alone would pass docs that still run it.
    for dir in $({ grep -oE 'go run \./[A-Za-z0-9_/-]+' <<<"$inline"$'\n'"$fenced" || true; } | sed 's|^go run \./||' | sort -u); do
        [ -d "$dir" ] || { echo "ci: $doc runs go run ./$dir, which does not exist" >&2; bad=1; }
    done
    for name in $({ grep -oE '\b(Test|Benchmark|Fuzz)[A-Z0-9][A-Za-z0-9_]*[*{]?' <<<"$inline" || true; } | sort -u); do
        case "$name" in
            *[*{]) grep -q "^${name%?}" <<<"$tests" ;;
            *) grep -qx "$name" <<<"$tests" ;;
        esac || { echo "ci: $doc names $name, which go test -list does not" >&2; bad=1; }
    done
    for sym in $({ grep -xE '[a-z][a-z0-9]*\.[A-Z][A-Za-z0-9_]*(\.[A-Za-z][A-Za-z0-9_]*)?' <<<"$inline" || true; } | sort -u); do
        if [ -z "${documented[$sym]+set}" ]; then
            pkg="${sym%%.*}"
            case "$pkg" in
                prudentia) dir=. ;;
                *) dir="$pkg"; [ -d "internal/$pkg" ] && dir="./internal/$pkg" ;;
            esac
            documented[$sym]=0
            go doc "$dir" "${sym#*.}" >/dev/null 2>&1 && documented[$sym]=1
        fi
        [ "${documented[$sym]}" -eq 1 ] || { echo "ci: $doc names $sym, which go doc does not find" >&2; bad=1; }
    done
    # An all-caps name before the dot (`README.md`) is a file, not a type.
    for sym in $({ grep -xE '[A-Z][A-Za-z0-9_]*[a-z][A-Za-z0-9_]*\.[A-Za-z_][A-Za-z0-9_]*' <<<"$inline" || true; } | sort -u); do
        if [ -z "${documented[$sym]+set}" ]; then
            documented[$sym]=0
            member_found "$sym" && documented[$sym]=1
        fi
        [ "${documented[$sym]}" -eq 1 ] || { echo "ci: $doc names $sym, which go doc -u finds in no package of this module" >&2; bad=1; }
    done
done
[ "$bad" -eq 0 ] || { echo "ci: docs gate failed" >&2; exit 1; }
echo "ci: docs gate passed (${#DOCS[@]} documents)"
