/**
 * @file
 * The prefetcher factory: builds the engine stack a spec names.
 *
 * A spec string names one engine ("stream", "imp", "ghb", "none") or
 * stacks several with `+` ("stream+ghb"), which makePrefetcher()
 * composes behind a single CompositePrefetcher. Engines are built
 * against the abstract PrefetchHost, so any of them can be built
 * against a fake host in tests or attached at either cache level.
 *
 * Spec grammar (also in docs/prefetcher_specs.md):
 *   stack := name ('+' name)*
 * Blank segments are ignored ("stream+" builds a bare stream engine;
 * a whole-blank spec builds nothing, like "none"). Unknown names fail
 * fast with a message listing every known engine.
 */
#ifndef IMPSIM_CORE_PREFETCHER_REGISTRY_HPP
#define IMPSIM_CORE_PREFETCHER_REGISTRY_HPP

#include <memory>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "core/prefetcher.hpp"

namespace impsim {

/**
 * Builds the prefetcher stack for @p spec ("imp", "stream+ghb", ...)
 * attached at @p level, with the engines' knobs taken from @p cfg.
 * Blank segments and "none" build no engine; an empty resulting stack
 * yields nullptr, a single engine is returned bare, several are
 * wrapped in a CompositePrefetcher in spec order. Unknown names are
 * fatal, with the known names listed.
 */
std::unique_ptr<Prefetcher> makePrefetcher(const std::string &spec,
                                           PrefetchHost &host,
                                           const SystemConfig &cfg,
                                           AttachLevel level);

/** Every engine name makePrefetcher() builds, sorted. */
std::vector<std::string> prefetcherNames();

/**
 * Splits "a+b+c" into {"a","b","c"}, trimming surrounding whitespace
 * per component. Performs no name validation.
 */
std::vector<std::string> splitPrefetcherSpec(const std::string &spec);

} // namespace impsim

#endif // IMPSIM_CORE_PREFETCHER_REGISTRY_HPP
