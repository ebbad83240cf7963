#!/usr/bin/env bash
# Batch clang-tidy over every TU in a build's compile_commands.json
# (the .clang-tidy profile at the repo root supplies the checks).
#
# Usage: scripts/run_tidy.sh [build-dir] [extra clang-tidy args...]
#   build-dir defaults to build-lint; it must have been configured
#   with -DCMAKE_EXPORT_COMPILE_COMMANDS=ON.
#
# CI runs this with --warnings-as-errors=* appended so any finding
# fails the lint job; locally the default is advisory output.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-lint}"
shift || true

if [ ! -f "$BUILD_DIR/compile_commands.json" ]; then
    echo "run_tidy: $BUILD_DIR/compile_commands.json not found;" \
         "configure with -DCMAKE_EXPORT_COMPILE_COMMANDS=ON" >&2
    exit 2
fi

TIDY=""
for candidate in clang-tidy clang-tidy-18 clang-tidy-17 clang-tidy-16 \
                 clang-tidy-15 clang-tidy-14; do
    if command -v "$candidate" > /dev/null 2>&1; then
        TIDY="$candidate"
        break
    fi
done
if [ -z "$TIDY" ]; then
    echo "run_tidy: no clang-tidy on PATH; skipping (the lint CI job" \
         "installs one)" >&2
    exit 0
fi

# Only TUs the database knows — tidying a file without its compile
# flags (include paths, IMPSIM_SOURCE_DIR, ...) misparses it.
mapfile -t FILES < <(python3 - "$BUILD_DIR" <<'EOF'
import json, sys
entries = json.load(open(sys.argv[1] + "/compile_commands.json"))
seen = []
for e in entries:
    f = e["file"]
    if f not in seen:
        seen.append(f)
print("\n".join(sorted(seen)))
EOF
)

echo "run_tidy: $TIDY over ${#FILES[@]} TUs from $BUILD_DIR"
printf '%s\n' "${FILES[@]}" |
    xargs -P "$(nproc)" -n 4 "$TIDY" -p "$BUILD_DIR" --quiet "$@"
echo "run_tidy: clean"
