#include "sim/design.hh"

#include "common/logging.hh"

namespace texpim {

const char *
designName(Design d)
{
    switch (d) {
      case Design::Baseline:
        return "Baseline";
      case Design::BPim:
        return "B-PIM";
      case Design::STfim:
        return "S-TFIM";
      case Design::ATfim:
        return "A-TFIM";
      default:
        TEXPIM_PANIC("bad design ", int(d));
    }
}

bool
parseDesign(std::string_view token, Design &out)
{
    if (token == "baseline")
        out = Design::Baseline;
    else if (token == "b-pim" || token == "bpim")
        out = Design::BPim;
    else if (token == "s-tfim" || token == "stfim")
        out = Design::STfim;
    else if (token == "a-tfim" || token == "atfim")
        out = Design::ATfim;
    else
        return false;
    return true;
}

} // namespace texpim
