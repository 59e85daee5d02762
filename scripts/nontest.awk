# Prints "<lines> <non-test lines>" for one Rust file on stdin. A
# `#[cfg(test)]` item is test: from the attribute's line to the line of
# the `}` that closes the item's body, or of the `;` that ends an item
# without one (`mod tests;`, `use ...;`, `struct Row;`). Every other line
# is non-test, whether it comes before the item or after it.
#
# Brackets inside one-line string and char literals and `//` comments are
# ignored; a literal or `/* */` comment spanning lines must balance its
# brackets, as every such literal in this repo does.
#
#   awk -f scripts/nontest.awk < file.rs
#
# scripts/loc.sh counts with it; scripts/check.sh holds it to a fixture.
{
    line = $0
    if (!test && line ~ /^[[:space:]]*#\[cfg\(test\)\]/) {
        test = 1
        depth = 0
        sub(/^[[:space:]]*#\[cfg\(test\)\]/, "", line)
    }
    if (!test) {
        kept++
        next
    }
    gsub(/\\./, "", line)
    gsub(/"[^"]*"/, "", line)
    gsub(/'[^']'/, "", line)
    sub(/\/\/.*/, "", line)
    for (i = 1; test && i <= length(line); i++) {
        c = substr(line, i, 1)
        if (c == "{" || c == "(" || c == "[") {
            depth++
        } else if (c == "}" || c == ")" || c == "]") {
            depth--
            if (c == "}" && depth == 0) test = 0
        } else if (c == ";" && depth == 0) {
            test = 0
        }
    }
}
END { print NR, kept + 0 }
