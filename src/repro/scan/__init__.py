"""IEEE 1149.1 TAP, MultiTAP, and scan-driven configuration."""

from repro.scan.chain import (
    ScanChain,
    attach_scan,
    disable_port,
    enable_port,
    set_dilation,
    set_fast_reclaim,
)
from repro.scan.multitap import MultiTap
from repro.scan.registers import (
    boundary_width,
    config_chain_width,
    decode_config,
    encode_config,
    make_boundary_register,
    make_config_register,
    make_idcode,
)
from repro.scan.tap import (
    BYPASS,
    CONFIG,
    DataRegister,
    EXTEST,
    IDCODE,
    SAMPLE,
    TapController,
)

__all__ = [
    "BYPASS",
    "CONFIG",
    "DataRegister",
    "EXTEST",
    "IDCODE",
    "MultiTap",
    "SAMPLE",
    "ScanChain",
    "TapController",
    "attach_scan",
    "boundary_width",
    "config_chain_width",
    "decode_config",
    "disable_port",
    "enable_port",
    "encode_config",
    "make_boundary_register",
    "make_config_register",
    "make_idcode",
    "set_dilation",
    "set_fast_reclaim",
]
