/**
 * @file
 * Fan-out prefetcher: forwards every hook to an ordered list of
 * children. This is how makePrefetcher() stacks the engines of a
 * `+`-composed spec ("stream+ghb") behind one attachment point.
 */
#ifndef IMPSIM_CORE_COMPOSITE_PREFETCHER_HPP
#define IMPSIM_CORE_COMPOSITE_PREFETCHER_HPP

#include <memory>
#include <utility>
#include <vector>

#include "core/prefetcher.hpp"

namespace impsim {

/** Forwards every hook to its children, in construction order. */
class CompositePrefetcher final : public Prefetcher
{
  public:
    explicit CompositePrefetcher(
        std::vector<std::unique_ptr<Prefetcher>> children)
        : children_(std::move(children))
    {}

    void
    onAccess(const AccessInfo &info) override
    {
        for (auto &c : children_)
            c->onAccess(info);
    }

    void
    onMiss(const AccessInfo &info) override
    {
        for (auto &c : children_)
            c->onMiss(info);
    }

    void
    onPrefetchFill(Addr line, std::uint16_t pattern) override
    {
        for (auto &c : children_)
            c->onPrefetchFill(line, pattern);
    }

    void
    onEvict(Addr line) override
    {
        for (auto &c : children_)
            c->onEvict(line);
    }

    // ---- Inspection (tests) ----
    std::size_t childCount() const { return children_.size(); }
    Prefetcher &child(std::size_t i) { return *children_[i]; }

  private:
    std::vector<std::unique_ptr<Prefetcher>> children_;
};

} // namespace impsim

#endif // IMPSIM_CORE_COMPOSITE_PREFETCHER_HPP
