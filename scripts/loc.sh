#!/bin/sh
# The one way to count this repo's Rust: lines (`wc -l`) of every tracked
# `*.rs` file, per crate and per top-level directory, `src/` apart from
# `tests/` + `benches/`, plus the total. ROADMAP aim 2 asks every PR for
# its net line delta; run this at the change and with the parent's
# revision, and quote both.
#
#   scripts/loc.sh           # the working tree's tracked files
#   scripts/loc.sh REV       # the tree of commit REV, read from git
#
# Tracked files only, so build output never counts. An inline
# `#[cfg(test)]` module counts as the `src` file it sits in; the
# `non-test` column is `src` less every `#[cfg(test)]` item, attribute
# to closing brace or `;` (scripts/nontest.awk), so deleted code and
# deleted unit tests can be told apart. With REV, the files are REV's
# and the counter is the working tree's.
set -eu
cd "$(dirname "$0")/.."
# Prints "<lines> <non-test lines>" for stdin.
count() {
    awk -f scripts/nontest.awk
}
if [ $# -gt 0 ]; then
    git ls-tree -r --name-only "$1" | grep '\.rs$' | while IFS= read -r f; do
        printf '%s %s\n' "$(git cat-file -p "$1:$f" | count)" "$f"
    done
else
    git ls-files '*.rs' | while IFS= read -r f; do
        printf '%s %s\n' "$(count <"$f")" "$f"
    done
fi | awk '
function add(unit, kind, n) {
    if (!(unit in seen)) { seen[unit] = 1; order[++units] = unit }
    lines[unit, kind] += n
}
{
    n = split($3, p, "/")
    top = p[1]
    unit = (top == "crates" || top == "vendor") ? top "/" p[2] : top
    kind = "src"
    for (i = 2; i < n; i++) if (p[i] == "tests" || p[i] == "benches") kind = "tests"
    add(unit, kind, $1)
    if (kind == "src") add(unit, "non-test", $2)
    if (unit != top) {
        add(top " (all)", kind, $1)
        if (kind == "src") add(top " (all)", "non-test", $2)
    }
    add("TOTAL", kind, $1)
    if (kind == "src") add("TOTAL", "non-test", $2)
}
END {
    printf "%-22s %8s %8s %8s %8s\n", "", "src", "non-test", "tests", "total"
    for (i = 1; i <= units; i++) {
        u = order[i]; s = lines[u, "src"] + 0; t = lines[u, "tests"] + 0
        row = sprintf("%-22s %8d %8d %8d %8d", u, s, lines[u, "non-test"] + 0, t, s + t)
        if (u == "TOTAL") total = row; else print row | "sort"
    }
    close("sort")
    print total
}'
