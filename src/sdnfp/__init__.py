"""sdnfp: a desk-scale lab for timing-based fingerprinting of OpenFlow
controller-switch interactions, and the group-table delay countermeasure."""

__version__ = "0.1.0"
