/**
 * @file
 * Preset construction.
 */
#include "sim/presets.hpp"

#include "common/logging.hpp"

namespace impsim {

const char *
presetName(ConfigPreset p)
{
    switch (p) {
      case ConfigPreset::Ideal:
        return "Ideal";
      case ConfigPreset::PerfectPref:
        return "PerfPref";
      case ConfigPreset::Baseline:
        return "Base";
      case ConfigPreset::SwPref:
        return "SWPref";
      case ConfigPreset::Imp:
        return "IMP";
      case ConfigPreset::ImpPartialNoc:
        return "Partial-NoC";
      case ConfigPreset::ImpPartialNocDram:
        return "Partial-NoC+DRAM";
      case ConfigPreset::Ghb:
        return "GHB";
      case ConfigPreset::NoPrefetch:
        return "NoPref";
    }
    IMPSIM_PANIC("unknown preset");
}

const std::vector<ConfigPreset> &
allPresets()
{
    static const std::vector<ConfigPreset> presets{
        ConfigPreset::Ideal,         ConfigPreset::PerfectPref,
        ConfigPreset::Baseline,      ConfigPreset::SwPref,
        ConfigPreset::Imp,           ConfigPreset::ImpPartialNoc,
        ConfigPreset::ImpPartialNocDram, ConfigPreset::Ghb,
        ConfigPreset::NoPrefetch,
    };
    return presets;
}

bool
parsePresetName(const std::string &name, ConfigPreset &out)
{
    for (ConfigPreset p : allPresets()) {
        if (name == presetName(p)) {
            out = p;
            return true;
        }
    }
    return false;
}

SystemConfig
makePreset(ConfigPreset p, std::uint32_t cores, CoreModel model)
{
    SystemConfig cfg;
    cfg.numCores = cores;
    cfg.coreModel = model;
    // Presets express their engine as a prefetcher spec string; callers
    // may overwrite prefetcherSpec / l2PrefetcherSpec afterwards to
    // re-aim any preset at a different engine or cache level.
    switch (p) {
      case ConfigPreset::Ideal:
        cfg.magicMemory = true;
        cfg.prefetcherSpec = "none";
        break;
      case ConfigPreset::PerfectPref:
        cfg.perfectMemory = true;
        cfg.prefetcherSpec = "none";
        break;
      case ConfigPreset::Baseline:
      case ConfigPreset::SwPref:
        cfg.prefetcherSpec = "stream";
        break;
      case ConfigPreset::Imp:
        cfg.prefetcherSpec = "imp";
        break;
      case ConfigPreset::ImpPartialNoc:
        cfg.prefetcherSpec = "imp";
        cfg.partial = PartialMode::NocOnly;
        break;
      case ConfigPreset::ImpPartialNocDram:
        cfg.prefetcherSpec = "imp";
        cfg.partial = PartialMode::NocAndDram;
        break;
      case ConfigPreset::Ghb:
        cfg.prefetcherSpec = "stream+ghb";
        break;
      case ConfigPreset::NoPrefetch:
        cfg.prefetcherSpec = "none";
        break;
    }
    cfg.validate();
    return cfg;
}

bool
presetWantsSwPrefetch(ConfigPreset p)
{
    return p == ConfigPreset::SwPref;
}

} // namespace impsim
