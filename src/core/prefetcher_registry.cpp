/**
 * @file
 * The prefetcher factory: one branch per built-in engine.
 */
#include "core/prefetcher_registry.hpp"

#include <cctype>
#include <sstream>

#include "common/logging.hpp"
#include "core/composite_prefetcher.hpp"
#include "core/ghb.hpp"
#include "core/imp.hpp"
#include "core/stream_prefetcher.hpp"

namespace impsim {

std::unique_ptr<Prefetcher>
makePrefetcher(const std::string &spec, PrefetchHost &host,
               const SystemConfig &cfg, AttachLevel level)
{
    // An L2 instance trains on the L1 miss stream, so it takes the
    // line-granular stream knobs.
    const bool at_l2 = level == AttachLevel::L2;
    const StreamConfig &stream = at_l2 ? cfg.l2Stream : cfg.stream;

    std::vector<std::unique_ptr<Prefetcher>> stack;
    for (const std::string &name : splitPrefetcherSpec(spec)) {
        if (name.empty() || name == "none")
            continue; // A blank segment ("stream+", " + ") or "none".
        if (name == "stream") {
            stack.push_back(
                std::make_unique<StreamPrefetcher>(host, cfg.imp, stream));
        } else if (name == "imp") {
            stack.push_back(std::make_unique<ImpPrefetcher>(
                host, cfg.imp, stream, cfg.gp,
                cfg.partial != PartialMode::Off, at_l2));
        } else if (name == "ghb") {
            stack.push_back(std::make_unique<GhbPrefetcher>(host, cfg.ghb));
        } else {
            std::ostringstream msg;
            msg << "unknown prefetcher '" << name << "' in spec '" << spec
                << "'; known prefetchers:";
            for (const std::string &known : prefetcherNames())
                msg << " " << known;
            IMPSIM_FATAL(msg.str().c_str());
        }
    }
    if (stack.empty())
        return nullptr;
    if (stack.size() == 1)
        return std::move(stack.front());
    return std::make_unique<CompositePrefetcher>(std::move(stack));
}

std::vector<std::string>
prefetcherNames()
{
    return {"ghb", "imp", "none", "stream"};
}

std::vector<std::string>
splitPrefetcherSpec(const std::string &spec)
{
    std::vector<std::string> parts;
    std::size_t start = 0;
    while (start <= spec.size()) {
        std::size_t plus = spec.find('+', start);
        std::size_t end = plus == std::string::npos ? spec.size() : plus;
        std::size_t b = start, e = end;
        while (b < e && std::isspace(static_cast<unsigned char>(spec[b])))
            ++b;
        while (e > b && std::isspace(static_cast<unsigned char>(spec[e - 1])))
            --e;
        parts.push_back(spec.substr(b, e - b));
        if (plus == std::string::npos)
            break;
        start = plus + 1;
    }
    return parts;
}

} // namespace impsim
