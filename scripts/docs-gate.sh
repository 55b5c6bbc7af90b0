#!/usr/bin/env bash
# Docs gate: the documents that describe the system as it is name only
# flags and tests that exist. Checked: every inline code span that starts
# with a flag or with one of our commands, every command line in a fenced
# block that runs one of them, and every Test*/Benchmark*/Fuzz* name in
# an inline span (a trailing * or { makes it a prefix). CHANGES.md,
# ROADMAP.md and ISSUE.md are history and plans — they name what was
# removed on purpose — and PAPER(S).md/SNIPPETS.md are not about this
# code, so none of them is read here.
set -euo pipefail
cd "$(dirname "$0")/.."

DOCS=(README.md ARCHITECTURE.md DESIGN.md EXPERIMENTS.md docs/*.md .claude/skills/verify/SKILL.md)
# Commands whose flags this repository defines or documents.
OURS='(bin|\$BIN|"\$BIN"|prudentia|/tmp/prudentia-bin|go run \./cmd/[a-z]+|go run \./bench|bash bench/run\.sh|go test)'

flags="$(
    for pkg in ./cmd/prudentia ./cmd/experiment ./cmd/report ./bench; do
        go run "$pkg" -h 2>&1 || true
    done | sed -n 's/^  -\([a-z0-9-]*\).*/\1/p'
    # -h, and the go test flags the docs use.
    printf '%s\n' h run bench benchtime benchmem count race short timeout fuzz fuzztime cover list v cpu
)"
tests="$(go test -list . ./... | grep -E '^(Test|Benchmark|Fuzz)')"

bad=0
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
    for name in $({ grep -oE '\b(Test|Benchmark|Fuzz)[A-Z0-9][A-Za-z0-9_]*[*{]?' <<<"$inline" || true; } | sort -u); do
        case "$name" in
            *[*{]) grep -q "^${name%?}" <<<"$tests" ;;
            *) grep -qx "$name" <<<"$tests" ;;
        esac || { echo "ci: $doc names $name, which go test -list does not" >&2; bad=1; }
    done
done
[ "$bad" -eq 0 ] || { echo "ci: docs gate failed" >&2; exit 1; }
echo "ci: docs gate passed (${#DOCS[@]} documents)"
